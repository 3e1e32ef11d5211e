//! The steering endpoint on the master rank: one simulation, N clients.
//!
//! The paper's in situ loop (§IV-C-1, Fig. 2) has exactly one endpoint
//! between clients and the simulation. This is it: one producer, N
//! consumers, SENSEI-style, where the classic single scientist driving
//! one run is simply N = 1.
//!
//! * a transport handed in at construction is seated silently as
//!   session 1, the driver;
//! * every client that dials the [`Acceptor`] becomes a **session**
//!   with a monotonically increasing [`SessionId`];
//! * when the last session is gone the run goes **headless** if there
//!   is an acceptor (a client can attach later and resume steering),
//!   and otherwise ends: nobody can ever attach again, so
//!   [`SessionGateway::poll_commands`] yields
//!   [`SteeringCommand::Terminate`];
//! * exactly one session holds the **driver** role — only its commands
//!   reach the simulation. Everyone else is an **observer** receiving
//!   the status/image broadcast. The first session to attach drives;
//!   on driver disconnect (or an explicit
//!   [`SteeringCommand::ReleaseDriver`]) the role hands off to the
//!   *lowest-numbered* remaining session, so arbitration is
//!   deterministic and replayable;
//! * broadcasts go through per-session send queues
//!   ([`Transport::try_send_frame`]), so one slow or dead observer can
//!   never stall the simulation loop. A backlogged session walks a
//!   degradation ladder: past `degrade_queued_bytes` it stops receiving
//!   images (status-only), past `detach_queued_bytes` — or once its
//!   backlog has failed to drain for `drain_deadline` — it is detached
//!   (the deadline spares a session nobody could replace);
//! * identical observer views are served from a [`FrameCache`] keyed by
//!   `(step, camera, ROI, transfer-function family)`: one render and
//!   one run-length encode, N cheap sends.
//!
//! The cache is deliberately **FIFO**, not LRU: the closed loop keeps
//! one key cache per rank (payloads only on the master) and consults it
//! collectively, so every rank must agree on which key gets evicted.
//! LRU would touch entries on master-only lookups and silently diverge
//! the eviction order across ranks; FIFO depends only on the insertion
//! sequence, which is replicated.

use crate::protocol::{ObservableReport, ServerMessage, StatusReport, SteeringCommand};
use crate::transport::{Acceptor, Transport};
use bytes::Bytes;
use hemelb_obs::Fnv1a;
use hemelb_parallel::Wire;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Identifies one client session for its lifetime. Ids are assigned in
/// attach order and never reused, so ordering them orders attachment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session {}", self.0)
    }
}

/// Gateway tuning knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Hard cap on concurrent sessions; extra dials are refused.
    pub max_sessions: usize,
    /// Send backlog (bytes) past which a session degrades to
    /// status-only: queued image frames stop being sent to it.
    pub degrade_queued_bytes: u64,
    /// Send backlog (bytes) past which a session is detached outright.
    pub detach_queued_bytes: u64,
    /// How long a session's backlog may stay non-empty before the
    /// session is declared wedged and detached (PR 4's deadline idea
    /// applied to the send side). Not applied to the pre-connected
    /// session of a gateway without an acceptor.
    pub drain_deadline: Duration,
    /// Rendered-frame cache capacity (entries). Zero disables caching.
    pub frame_cache_entries: usize,
    /// Broadcast frames in the sparse run-length wire form
    /// ([`crate::protocol::SparseImageFrame`]) instead of dense RGB.
    pub sparse_frames: bool,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            max_sessions: 1024,
            degrade_queued_bytes: 4 << 20,
            detach_queued_bytes: 16 << 20,
            drain_deadline: Duration::from_secs(2),
            frame_cache_entries: 32,
            sparse_frames: true,
        }
    }
}

/// Everything that identifies a rendered frame, for cache lookups.
///
/// `view` folds together the camera (pose, FOV, image dimensions), the
/// ROI, the displayed field and the transfer-function *family* hash —
/// the data-derived scalar range is excluded on purpose (it is a pure
/// function of `(step, field, ROI)`, which the key already pins; see
/// `TransferFunction::family_hash`). Built from replicated steering
/// state only, so every rank computes the identical key without
/// communicating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameKey {
    /// Simulation step the frame shows.
    pub step: u64,
    /// Hash of the full view configuration.
    pub view: u64,
}

impl FrameKey {
    /// Combine the view ingredients into a key.
    pub fn new(
        step: u64,
        camera_hash: u64,
        roi: Option<([u32; 3], [u32; 3])>,
        field_tag: u8,
        tf_family_hash: u64,
    ) -> Self {
        let mut h = Fnv1a::new();
        h.u64(camera_hash);
        match roi {
            None => h.u64(0),
            Some((lo, hi)) => {
                h.u64(1);
                for v in lo.iter().chain(hi.iter()) {
                    h.u64(*v as u64);
                }
            }
        }
        h.u64(field_tag as u64);
        h.u64(tf_family_hash);
        FrameKey {
            step,
            view: h.finish(),
        }
    }
}

/// The result of a [`FrameCache::lookup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheLookup {
    /// The key is cached. The payload is `Some` only on the rank that
    /// stores payloads (the master); everyone else caches keys alone.
    Hit(Option<Bytes>),
    /// Not cached; render, then [`FrameCache::insert`].
    Miss,
}

/// A bounded FIFO cache of encoded frames keyed by [`FrameKey`].
///
/// FIFO eviction (not LRU) keeps rank-replicated instances in lockstep:
/// eviction order depends only on the insertion sequence, never on who
/// looked what up. See the module docs for why that matters.
#[derive(Debug, Default)]
pub struct FrameCache {
    capacity: usize,
    order: VecDeque<FrameKey>,
    entries: HashMap<FrameKey, Option<Bytes>>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl FrameCache {
    /// A cache holding at most `capacity` frames (0 disables it: every
    /// lookup misses and inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        FrameCache {
            capacity,
            ..Default::default()
        }
    }

    /// Look `key` up, counting the hit or miss.
    pub fn lookup(&mut self, key: FrameKey) -> CacheLookup {
        match self.entries.get(&key) {
            Some(payload) => {
                self.hits += 1;
                CacheLookup::Hit(payload.clone())
            }
            None => {
                self.misses += 1;
                CacheLookup::Miss
            }
        }
    }

    /// Insert an encoded frame (or just the key, on ranks that don't
    /// keep payloads), evicting the oldest entry at capacity.
    pub fn insert(&mut self, key: FrameKey, payload: Option<Bytes>) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.insert(key, payload).is_some() {
            // Same key re-inserted: refresh the payload, keep the FIFO
            // position (a move-to-back would be an LRU touch).
            return;
        }
        self.order.push_back(key);
        while self.order.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.entries.remove(&old);
                self.evictions += 1;
            }
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }
    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
    /// Evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

struct Session {
    transport: Box<dyn Transport>,
    /// When the send backlog last became non-empty (`None` = drained).
    backlog_since: Option<Instant>,
    /// Degraded: receives status reports but no image frames.
    status_only: bool,
}

/// The steering endpoint living on the master rank. The closed loop
/// holds it by shared reference, hence the interior mutability.
pub struct SessionGateway {
    acceptor: Option<Box<dyn Acceptor>>,
    cfg: GatewayConfig,
    sessions: RefCell<BTreeMap<SessionId, Session>>,
    next_id: Cell<u64>,
    driver: Cell<Option<SessionId>>,
    events: RefCell<Vec<String>>,
    /// Driver commands drained off a dying transport at detach time,
    /// returned by the next [`SessionGateway::poll_commands`]. A loss is
    /// usually noticed on a *send*, when the driver may still have
    /// decodable commands in flight.
    salvaged: RefCell<Vec<SteeringCommand>>,
    /// Last broadcast frame, replayed to late-joining observers so they
    /// see a picture immediately instead of waiting out the vis cadence.
    last_frame: RefCell<Option<Bytes>>,
    bytes_retired: Cell<u64>,
    attaches: Cell<u64>,
    sessions_peak: Cell<u64>,
    frames_skipped_status_only: Cell<u64>,
}

impl SessionGateway {
    /// The endpoint over either or both ends the closed loop receives:
    /// an already-connected `transport`, seated as session 1 / driver
    /// without an event (nothing happened that a client needs telling),
    /// and an `acceptor` through which further sessions dial in.
    pub fn new(
        transport: Option<Box<dyn Transport>>,
        acceptor: Option<Box<dyn Acceptor>>,
        cfg: GatewayConfig,
    ) -> Self {
        let gw = SessionGateway {
            acceptor,
            cfg,
            sessions: RefCell::new(BTreeMap::new()),
            next_id: Cell::new(1),
            driver: Cell::new(None),
            events: RefCell::new(Vec::new()),
            salvaged: RefCell::new(Vec::new()),
            last_frame: RefCell::new(None),
            bytes_retired: Cell::new(0),
            attaches: Cell::new(0),
            sessions_peak: Cell::new(0),
            frames_skipped_status_only: Cell::new(0),
        };
        if let Some(transport) = transport {
            gw.seat(transport);
        }
        gw
    }

    /// Concurrent sessions right now.
    pub fn session_count(&self) -> usize {
        self.sessions.borrow().len()
    }

    /// Most sessions ever concurrent.
    pub fn sessions_peak(&self) -> u64 {
        self.sessions_peak.get()
    }

    /// Total attaches over the gateway's lifetime.
    pub fn attach_count(&self) -> u64 {
        self.attaches.get()
    }

    /// The session currently holding the driver role, if any.
    pub fn driver_id(&self) -> Option<SessionId> {
        self.driver.get()
    }

    /// Image frames withheld from status-only (degraded) sessions.
    pub fn frames_skipped_status_only(&self) -> u64 {
        self.frames_skipped_status_only.get()
    }

    /// Drain pending session events (attach/detach/hand-off/degrade/
    /// rejection notices), for `StatusReport.problems`.
    pub fn take_events(&self) -> Vec<String> {
        std::mem::take(&mut *self.events.borrow_mut())
    }

    /// Steering bytes sent across all sessions, past and present.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_retired.get()
            + self
                .sessions
                .borrow()
                .values()
                .map(|s| s.transport.bytes_sent())
                .sum::<u64>()
    }

    /// A snapshot of the seated ids: loops over it may detach sessions.
    fn session_ids(&self) -> Vec<SessionId> {
        self.sessions.borrow().keys().copied().collect()
    }

    fn event(&self, msg: String) {
        self.events.borrow_mut().push(msg);
    }

    /// Remove `id`, salvaging decodable driver commands first, and hand
    /// the driver role off deterministically if the driver just left.
    fn detach(&self, id: SessionId, why: &str) {
        let Some(session) = self.sessions.borrow_mut().remove(&id) else {
            return;
        };
        let was_driver = self.driver.get() == Some(id);
        let (mut salvaged, mut rejected) = (0usize, 0usize);
        if was_driver {
            // The driver's last commands may still sit on the dying
            // transport; an observer's would be rejected anyway.
            while let Ok(Some(frame)) = session.transport.try_recv_frame() {
                match SteeringCommand::from_bytes(frame) {
                    Ok(cmd) => {
                        self.salvaged.borrow_mut().push(cmd);
                        salvaged += 1;
                    }
                    Err(_) => rejected += 1,
                }
            }
        }
        self.bytes_retired
            .set(self.bytes_retired.get() + session.transport.bytes_sent());
        let mut msg = format!("{id} detached: {why}");
        if salvaged > 0 || rejected > 0 {
            msg.push_str(&format!(
                " (salvaged {salvaged} queued command(s), rejected {rejected} undecodable)"
            ));
        }
        self.event(msg);
        if was_driver {
            self.driver.set(None);
            self.promote_driver(None);
        }
    }

    /// Give the driver role to the lowest-numbered session other than
    /// `exclude` (falling back to `exclude` itself if it is the only
    /// session left). Lowest-id promotion makes hand-off a pure
    /// function of the session set — deterministic and testable.
    fn promote_driver(&self, exclude: Option<SessionId>) {
        let chosen = {
            let sessions = self.sessions.borrow();
            let others = sessions.keys().find(|id| Some(**id) != exclude);
            others.or_else(|| sessions.keys().next()).copied()
        };
        if let Some(id) = chosen {
            self.driver.set(Some(id));
            self.event(format!("driver hand-off: {id} now drives"));
        }
    }

    /// Seat `transport` as the next session: the driver if nobody
    /// drives, an observer otherwise.
    fn seat(&self, transport: Box<dyn Transport>) -> SessionId {
        let id = SessionId(self.next_id.get());
        self.next_id.set(id.0 + 1);
        if self.driver.get().is_none() {
            self.driver.set(Some(id));
        }
        self.sessions.borrow_mut().insert(
            id,
            Session {
                transport,
                backlog_since: None,
                status_only: false,
            },
        );
        self.attaches.set(self.attaches.get() + 1);
        self.sessions_peak
            .set(self.sessions_peak.get().max(self.session_count() as u64));
        id
    }

    /// Accept every client currently knocking; returns the new sessions.
    fn accept_pending(&self) -> Vec<SessionId> {
        let mut seated = Vec::new();
        let Some(acceptor) = &self.acceptor else {
            return seated;
        };
        while let Ok(Some(transport)) = acceptor.try_accept() {
            if self.session_count() >= self.cfg.max_sessions {
                // Dropping the transport closes the connection.
                self.event(format!(
                    "session refused: at capacity ({})",
                    self.cfg.max_sessions
                ));
                continue;
            }
            // Catch-up for observers only: a session about to drive asks
            // for what it wants, and must not get its predecessor's
            // stale frame as the answer.
            if self.driver.get().is_some() {
                if let Some(frame) = self.last_frame.borrow().clone() {
                    if transport.try_send_frame(frame).is_err() {
                        self.event("a session died during attach".into());
                        continue;
                    }
                }
            }
            let id = self.seat(transport);
            let role = if self.driver.get() == Some(id) {
                "driver"
            } else {
                "observer"
            };
            self.event(format!("{id} attached as {role}"));
            seated.push(id);
        }
        seated
    }

    /// Walk every session down the degradation ladder: opportunistic
    /// flush, then status-only past `degrade_queued_bytes`, then detach
    /// past `detach_queued_bytes` or the drain deadline.
    ///
    /// The clock spares the one session a gateway without an acceptor
    /// can have: nobody could replace it, so detaching it could only end
    /// the run. A slow link thins out to status-only; only the byte cap
    /// (a peer that reads nothing at all) removes it.
    fn pump(&self) {
        let irreplaceable = self.acceptor.is_none();
        for id in self.session_ids() {
            let verdict = {
                let mut sessions = self.sessions.borrow_mut();
                let Some(s) = sessions.get_mut(&id) else {
                    continue;
                };
                match s.transport.flush_pending() {
                    Err(e) => Err(e.to_string()),
                    Ok(0) => {
                        if s.backlog_since.take().is_some() && s.status_only {
                            s.status_only = false;
                            Ok(Some(format!("{id} recovered: backlog drained")))
                        } else {
                            Ok(None)
                        }
                    }
                    Ok(pending) => {
                        let since = *s.backlog_since.get_or_insert_with(Instant::now);
                        if pending > self.cfg.detach_queued_bytes
                            || (!irreplaceable && since.elapsed() > self.cfg.drain_deadline)
                        {
                            Err(format!(
                                "wedged: {pending} bytes backlogged for {:.1?}",
                                since.elapsed()
                            ))
                        } else if pending > self.cfg.degrade_queued_bytes && !s.status_only {
                            s.status_only = true;
                            Ok(Some(format!(
                                "{id} degraded to status-only ({pending} bytes backlogged)"
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
                Err(why) => self.detach(id, &why),
            }
        }
    }

    fn command_name(cmd: &SteeringCommand) -> &'static str {
        match cmd {
            SteeringCommand::SetCamera { .. } => "SetCamera",
            SteeringCommand::SetField(_) => "SetField",
            SteeringCommand::SetVisRate(_) => "SetVisRate",
            SteeringCommand::SetRoi { .. } => "SetRoi",
            SteeringCommand::SetInletPressure { .. } => "SetInletPressure",
            SteeringCommand::Pause => "Pause",
            SteeringCommand::Resume => "Resume",
            SteeringCommand::RequestFrame => "RequestFrame",
            SteeringCommand::RequestObservables => "RequestObservables",
            SteeringCommand::SetAdaptiveLb(_) => "SetAdaptiveLb",
            SteeringCommand::Terminate => "Terminate",
            SteeringCommand::ReleaseDriver => "ReleaseDriver",
        }
    }

    /// Drain the inbound queues of `ids` into `out`, arbitrating roles
    /// and detaching dead or garbling sessions.
    fn drain_inbound(&self, ids: &[SessionId], out: &mut Vec<SteeringCommand>) {
        for &id in ids {
            loop {
                let polled = {
                    let sessions = self.sessions.borrow();
                    match sessions.get(&id) {
                        None => break,
                        Some(s) => s.transport.try_recv_frame(),
                    }
                };
                match polled {
                    Ok(None) => break,
                    Ok(Some(frame)) => match SteeringCommand::from_bytes(frame) {
                        Ok(cmd) => {
                            let is_driver = self.driver.get() == Some(id);
                            match (&cmd, is_driver) {
                                (SteeringCommand::ReleaseDriver, true) => {
                                    self.event(format!("{id} released the driver role"));
                                    self.promote_driver(Some(id));
                                }
                                (_, true) => out.push(cmd),
                                (_, false) => self.event(format!(
                                    "rejected {} from observer {id}: only the driver steers",
                                    Self::command_name(&cmd)
                                )),
                            }
                        }
                        Err(e) => {
                            self.detach(id, &format!("undecodable command: {e}"));
                            break;
                        }
                    },
                    Err(e) => {
                        self.detach(id, &e.to_string());
                        break;
                    }
                }
            }
        }
    }

    /// Drain every session's inbound queue, accept dials, arbitrate
    /// roles, and pump the send queues. Returns the commands to apply —
    /// the driver's stream, in order (salvaged commands first).
    ///
    /// The seated sessions are drained — and the dead among them
    /// detached — *before* the acceptor is polled, so a client redialing
    /// in the poll that reaps its predecessor finds the seat (and the
    /// driver role) free instead of being refused at capacity.
    ///
    /// With no session left and no acceptor nobody can ever attach
    /// again: the stream ends in [`SteeringCommand::Terminate`].
    pub fn poll_commands(&self) -> Vec<SteeringCommand> {
        let mut out = std::mem::take(&mut *self.salvaged.borrow_mut());
        self.drain_inbound(&self.session_ids(), &mut out);
        let newcomers = self.accept_pending();
        self.drain_inbound(&newcomers, &mut out);
        self.pump();
        if self.acceptor.is_none() && self.session_count() == 0 {
            out.push(SteeringCommand::Terminate);
        }
        out
    }

    /// Pump until every session's send backlog has drained, giving up
    /// once the total backlog has not shrunk for `drain_deadline` (a
    /// slow link gets all the time it uses, a wedged one none beyond the
    /// deadline). Sends never block, so without this the tail of a run —
    /// its last frame — could still sit in a transport's buffer when the
    /// gateway is dropped.
    pub(crate) fn flush(&self) {
        let mut least = u64::MAX;
        let mut since = Instant::now();
        loop {
            self.pump();
            let pending = |s: &Session| s.transport.pending_bytes();
            let pending: u64 = self.sessions.borrow().values().map(pending).sum();
            if pending == 0 {
                return;
            }
            if pending < least {
                least = pending;
                since = Instant::now();
            } else if since.elapsed() > self.cfg.drain_deadline {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Broadcast an encoded [`ServerMessage`] to sessions, skipping
    /// image frames for status-only sessions when `is_image`. Send
    /// errors detach the session (terminal — never retry mid-frame).
    fn broadcast_bytes(&self, bytes: &Bytes, is_image: bool) {
        for id in self.session_ids() {
            let result = {
                let sessions = self.sessions.borrow();
                let Some(s) = sessions.get(&id) else { continue };
                if is_image && s.status_only {
                    self.frames_skipped_status_only
                        .set(self.frames_skipped_status_only.get() + 1);
                    continue;
                }
                s.transport.try_send_frame(bytes.clone())
            };
            if let Err(e) = result {
                self.detach(id, &e.to_string());
            }
        }
    }

    /// Broadcast a status report to every session (status-only sessions
    /// included — status is exactly what they still receive).
    pub fn broadcast_status(&self, status: StatusReport) {
        let bytes = ServerMessage::Status(status).to_bytes();
        self.broadcast_bytes(&bytes, false);
    }

    /// Broadcast an observable report to every session.
    pub fn broadcast_observables(&self, report: ObservableReport) {
        let bytes = ServerMessage::Observables(report).to_bytes();
        self.broadcast_bytes(&bytes, false);
    }

    /// Broadcast an already-encoded image message (dense or sparse) and
    /// remember it for late-joiner catch-up. Taking encoded bytes lets
    /// the closed loop encode once — cache hit or miss — and fan out N
    /// cheap sends.
    pub fn broadcast_frame_bytes(&self, bytes: Bytes) {
        self.broadcast_bytes(&bytes, true);
        *self.last_frame.borrow_mut() = Some(bytes);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::protocol::ImageFrame;
    use crate::transport::{duplex_listener, duplex_pair, DuplexConnector, InMemoryTransport};
    use crossbeam_channel::{unbounded, Receiver, Sender};
    use parking_lot::Mutex;

    fn small_cfg() -> GatewayConfig {
        GatewayConfig {
            max_sessions: 8,
            ..Default::default()
        }
    }

    /// A gateway behind an in-memory acceptor, no pre-connected client.
    fn listening(cfg: GatewayConfig) -> (DuplexConnector, SessionGateway) {
        let (connector, acceptor) = duplex_listener();
        let gw = SessionGateway::new(None, Some(Box::new(acceptor)), cfg);
        (connector, gw)
    }

    /// A gateway over one pre-connected client and no acceptor — what
    /// `run_closed_loop` builds. Returns the client end.
    fn preconnected() -> (InMemoryTransport, SessionGateway) {
        let (client_end, server_end) = duplex_pair();
        let gw = SessionGateway::new(Some(Box::new(server_end)), None, small_cfg());
        (client_end, gw)
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

    fn image_bytes(step: u64) -> Bytes {
        ServerMessage::Image(ImageFrame {
            step,
            width: 1,
            height: 1,
            rgb: vec![step as u8, 0, 0],
        })
        .to_bytes()
    }

    #[test]
    fn first_session_drives_listeners_observe() {
        let (connector, gw) = listening(small_cfg());
        let driver = connector.connect().unwrap();
        let observer = connector.connect().unwrap();
        driver
            .send_frame(SteeringCommand::Pause.to_bytes())
            .unwrap();
        observer
            .send_frame(SteeringCommand::Resume.to_bytes())
            .unwrap();
        let cmds = gw.poll_commands();
        assert_eq!(cmds, vec![SteeringCommand::Pause]);
        assert_eq!(gw.driver_id(), Some(SessionId(1)));
        assert_eq!(gw.session_count(), 2);
        let events = gw.take_events();
        assert!(
            events.iter().any(|e| e.contains("rejected Resume")),
            "{events:?}"
        );
    }

    #[test]
    fn broadcast_reaches_every_session() {
        let (connector, gw) = listening(small_cfg());
        let clients: Vec<InMemoryTransport> =
            (0..3).map(|_| connector.connect().unwrap()).collect();
        gw.poll_commands();
        assert_eq!(gw.session_count(), 3);
        gw.broadcast_status(status(7));
        gw.broadcast_frame_bytes(image_bytes(7));
        for c in &clients {
            let s = ServerMessage::from_bytes(c.recv_frame().unwrap()).unwrap();
            assert!(matches!(s, ServerMessage::Status(s) if s.step == 7));
            let img = ServerMessage::from_bytes(c.recv_frame().unwrap()).unwrap();
            assert!(matches!(img, ServerMessage::Image(i) if i.step == 7));
        }
        assert!(gw.bytes_sent() > 0);
    }

    #[test]
    fn driver_handoff_on_disconnect_is_deterministic() {
        let (connector, gw) = listening(small_cfg());
        let c1 = connector.connect().unwrap();
        let _c2 = connector.connect().unwrap();
        let _c3 = connector.connect().unwrap();
        gw.poll_commands();
        assert_eq!(gw.driver_id(), Some(SessionId(1)));
        // Driver dies: the lowest remaining id (2) must take over.
        drop(c1);
        gw.poll_commands();
        gw.broadcast_status(status(1)); // a send notices the death too
        gw.poll_commands();
        assert_eq!(gw.driver_id(), Some(SessionId(2)));
        assert_eq!(gw.session_count(), 2);
        let events = gw.take_events();
        assert!(
            events
                .iter()
                .any(|e| e.contains("hand-off") && e.contains("session 2")),
            "{events:?}"
        );
    }

    #[test]
    fn explicit_release_hands_off_and_demotes() {
        let (connector, gw) = listening(small_cfg());
        let c1 = connector.connect().unwrap();
        let c2 = connector.connect().unwrap();
        gw.poll_commands();
        c1.send_frame(SteeringCommand::ReleaseDriver.to_bytes())
            .unwrap();
        let cmds = gw.poll_commands();
        assert!(cmds.is_empty(), "release is arbitration, not steering");
        assert_eq!(gw.driver_id(), Some(SessionId(2)));
        // The old driver is now an observer: its commands are rejected,
        // the new driver's are applied.
        c1.send_frame(SteeringCommand::Pause.to_bytes()).unwrap();
        c2.send_frame(SteeringCommand::Resume.to_bytes()).unwrap();
        assert_eq!(gw.poll_commands(), vec![SteeringCommand::Resume]);
        // Sole-session release keeps them driving (someone must).
        drop(c1);
        gw.poll_commands();
        c2.send_frame(SteeringCommand::ReleaseDriver.to_bytes())
            .unwrap();
        gw.poll_commands();
        assert_eq!(gw.driver_id(), Some(SessionId(2)));
    }

    #[test]
    fn driver_commands_are_salvaged_at_detach() {
        let (connector, gw) = listening(small_cfg());
        let c1 = connector.connect().unwrap();
        gw.poll_commands();
        c1.send_frame(SteeringCommand::Pause.to_bytes()).unwrap();
        c1.send_frame(SteeringCommand::SetVisRate(7).to_bytes())
            .unwrap();
        drop(c1);
        // The loss is noticed on a failed *send*, before the commands
        // are polled: the send detaches, the next poll returns them.
        gw.broadcast_status(status(0));
        assert_eq!(gw.session_count(), 0, "failed send detaches the client");
        assert_eq!(
            gw.poll_commands(),
            vec![SteeringCommand::Pause, SteeringCommand::SetVisRate(7)]
        );
        let events = gw.take_events();
        assert!(
            events
                .iter()
                .any(|e| e.contains("detached") && e.contains("salvaged 2")),
            "{events:?}"
        );
    }

    #[test]
    fn undecodable_leftovers_at_detach_are_rejected_explicitly() {
        let (connector, gw) = listening(small_cfg());
        let c1 = connector.connect().unwrap();
        gw.poll_commands();
        c1.send_frame(SteeringCommand::Resume.to_bytes()).unwrap();
        c1.send_frame(Bytes::from_static(&[250, 9, 9])).unwrap();
        drop(c1);
        gw.broadcast_status(status(0));
        assert_eq!(gw.poll_commands(), vec![SteeringCommand::Resume]);
        let events = gw.take_events();
        assert!(
            events
                .iter()
                .any(|e| e.contains("salvaged 1") && e.contains("rejected 1")),
            "{events:?}"
        );
    }

    #[test]
    fn preconnected_client_drives_in_order_without_an_event() {
        let (client, gw) = preconnected();
        assert_eq!(gw.driver_id(), Some(SessionId(1)));
        assert_eq!((gw.session_count(), gw.attach_count()), (1, 1));
        client
            .send_frame(SteeringCommand::Pause.to_bytes())
            .unwrap();
        client
            .send_frame(SteeringCommand::SetVisRate(10).to_bytes())
            .unwrap();
        assert_eq!(
            gw.poll_commands(),
            vec![SteeringCommand::Pause, SteeringCommand::SetVisRate(10)]
        );
        assert!(gw.poll_commands().is_empty());
        // Adoption is not news: any event would land in every status
        // report's `problems`.
        assert!(gw.take_events().is_empty());
    }

    #[test]
    fn losing_the_only_client_without_an_acceptor_terminates() {
        // Dead peer.
        let (client, gw) = preconnected();
        drop(client);
        assert_eq!(gw.poll_commands(), vec![SteeringCommand::Terminate]);
        assert_eq!(gw.session_count(), 0);
        // Garbage frame.
        let (client, gw) = preconnected();
        client.send_frame(Bytes::from_static(&[250, 1, 2])).unwrap();
        assert_eq!(gw.poll_commands(), vec![SteeringCommand::Terminate]);
        // Nobody can attach any more, so every later poll says so too.
        assert_eq!(gw.poll_commands(), vec![SteeringCommand::Terminate]);
    }

    #[test]
    fn headless_gateway_survives_loss_and_reattach() {
        let (connector, gw) = listening(small_cfg());
        assert!(gw.poll_commands().is_empty(), "no client yet, no Terminate");
        gw.broadcast_status(status(0)); // no-op with nobody attached

        // First client attaches and steers.
        let c1 = connector.connect().unwrap();
        c1.send_frame(SteeringCommand::Pause.to_bytes()).unwrap();
        assert_eq!(gw.poll_commands(), vec![SteeringCommand::Pause]);
        assert_eq!((gw.session_count(), gw.attach_count()), (1, 1));
        gw.broadcast_frame_bytes(image_bytes(1));
        let sent_to_c1 = gw.bytes_sent();
        assert!(sent_to_c1 > 0);

        // It dies: the run goes headless instead of terminating.
        drop(c1);
        assert!(gw.poll_commands().is_empty(), "no Terminate injected");
        assert_eq!(gw.session_count(), 0);

        // A second client takes over; byte accounting spans both.
        let c2 = connector.connect().unwrap();
        c2.send_frame(SteeringCommand::Resume.to_bytes()).unwrap();
        assert_eq!(gw.poll_commands(), vec![SteeringCommand::Resume]);
        assert_eq!(gw.attach_count(), 2);
        assert_eq!(gw.driver_id(), Some(SessionId(2)));
        gw.broadcast_frame_bytes(image_bytes(2));
        assert!(gw.bytes_sent() > sent_to_c1);

        let events = gw.take_events();
        assert_eq!(events.len(), 3, "attach, loss, attach: {events:?}");
        assert!(events[0].contains("attached as driver"));
        assert!(events[1].contains("detached"));
        assert!(events[2].contains("attached as driver"));
        assert!(gw.take_events().is_empty(), "drained");
    }

    #[test]
    fn redial_in_the_poll_that_reaps_the_predecessor_drives() {
        let (connector, gw) = listening(GatewayConfig {
            max_sessions: 1,
            ..Default::default()
        });
        let c1 = connector.connect().unwrap();
        gw.poll_commands();
        gw.broadcast_frame_bytes(image_bytes(3));
        // c1 dies and c2 dials before the gateway polls again: the one
        // poll must reap first, then accept into the freed seat.
        drop(c1);
        let c2 = connector.connect().unwrap();
        c2.send_frame(SteeringCommand::Resume.to_bytes()).unwrap();
        assert_eq!(gw.poll_commands(), vec![SteeringCommand::Resume]);
        assert_eq!(gw.driver_id(), Some(SessionId(2)));
        let events = gw.take_events();
        assert!(!events.iter().any(|e| e.contains("refused")), "{events:?}");
        // A session seated as driver gets no catch-up replay: c1's
        // stale frame must not answer c2's first `RequestFrame`.
        assert!(c2.try_recv_frame().unwrap().is_none());
    }

    #[test]
    fn late_joiner_gets_the_last_frame_immediately() {
        let (connector, gw) = listening(small_cfg());
        let _c1 = connector.connect().unwrap();
        gw.poll_commands();
        gw.broadcast_frame_bytes(image_bytes(42));
        let late = connector.connect().unwrap();
        gw.poll_commands();
        let msg = ServerMessage::from_bytes(late.recv_frame().unwrap()).unwrap();
        assert!(matches!(msg, ServerMessage::Image(i) if i.step == 42));
    }

    #[test]
    fn session_cap_refuses_extra_dials() {
        let (connector, gw) = listening(GatewayConfig {
            max_sessions: 2,
            ..Default::default()
        });
        let _a = connector.connect().unwrap();
        let _b = connector.connect().unwrap();
        let refused = connector.connect().unwrap();
        gw.poll_commands();
        assert_eq!(gw.session_count(), 2);
        assert!(gw.take_events().iter().any(|e| e.contains("refused")));
        // The refused client's transport is closed server-side.
        assert!(refused.try_recv_frame().is_err());
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
        fn send_frame(&self, frame: Bytes) -> std::io::Result<()> {
            self.try_send_frame(frame)
        }
        fn try_recv_frame(&self) -> std::io::Result<Option<Bytes>> {
            Ok(None)
        }
        fn recv_frame(&self) -> std::io::Result<Bytes> {
            Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "wedged",
            ))
        }
        fn bytes_sent(&self) -> u64 {
            *self.sent.lock()
        }
        fn try_send_frame(&self, frame: Bytes) -> std::io::Result<()> {
            *self.sent.lock() += frame.len() as u64;
            *self.pending.lock() += frame.len() as u64;
            Ok(())
        }
        fn flush_pending(&self) -> std::io::Result<u64> {
            let mut pending = self.pending.lock();
            *pending = pending.saturating_sub(self.drains);
            Ok(*pending)
        }
        fn pending_bytes(&self) -> u64 {
            *self.pending.lock()
        }
    }

    /// An acceptor handing out arbitrary transports (to inject mocks).
    struct PushAcceptor {
        rx: Receiver<Box<dyn Transport>>,
    }

    fn push_acceptor() -> (Sender<Box<dyn Transport>>, PushAcceptor) {
        let (tx, rx) = unbounded();
        (tx, PushAcceptor { rx })
    }

    impl Acceptor for PushAcceptor {
        fn try_accept(&self) -> std::io::Result<Option<Box<dyn Transport>>> {
            Ok(self.rx.try_recv().ok())
        }
    }

    #[test]
    fn wedged_observer_degrades_to_status_only_then_detaches() {
        let (tx, acceptor) = push_acceptor();
        let gw = SessionGateway::new(
            None,
            Some(Box::new(acceptor)),
            GatewayConfig {
                degrade_queued_bytes: 64,
                detach_queued_bytes: 4096,
                drain_deadline: Duration::from_secs(3600),
                ..Default::default()
            },
        );
        assert!(tx.send(backlogging(0)).is_ok());
        gw.poll_commands();
        assert_eq!(gw.session_count(), 1);

        // Push past the degrade threshold: images stop, status flows.
        let big = Bytes::from(vec![0u8; 200]);
        gw.broadcast_frame_bytes(big.clone());
        gw.poll_commands();
        assert!(gw.take_events().iter().any(|e| e.contains("status-only")));
        assert_eq!(gw.session_count(), 1, "degraded, not detached");
        let skipped_before = gw.frames_skipped_status_only();
        gw.broadcast_frame_bytes(big.clone());
        assert_eq!(gw.frames_skipped_status_only(), skipped_before + 1);

        // Status still reaches it — until the backlog passes the detach
        // threshold (status frames keep accumulating on a wedge).
        for step in 0..200 {
            gw.broadcast_status(status(step));
            gw.poll_commands();
            if gw.session_count() == 0 {
                break;
            }
        }
        assert_eq!(gw.session_count(), 0, "wedged session finally detached");
        assert!(gw.take_events().iter().any(|e| e.contains("wedged")));
    }

    #[test]
    fn drain_deadline_detaches_a_stuck_backlog() {
        let (tx, acceptor) = push_acceptor();
        let gw = SessionGateway::new(
            None,
            Some(Box::new(acceptor)),
            GatewayConfig {
                degrade_queued_bytes: 1 << 30,
                detach_queued_bytes: 1 << 30,
                drain_deadline: Duration::from_millis(10),
                ..Default::default()
            },
        );
        assert!(tx.send(backlogging(0)).is_ok());
        gw.poll_commands();
        gw.broadcast_status(status(0));
        gw.poll_commands(); // backlog noticed; clock starts
        std::thread::sleep(Duration::from_millis(30));
        gw.poll_commands();
        assert_eq!(gw.session_count(), 0, "deadline detach");
    }

    #[test]
    fn flush_drains_slow_sessions_and_detaches_wedged_ones() {
        let (tx, acceptor) = push_acceptor();
        let gw = SessionGateway::new(
            None,
            Some(Box::new(acceptor)),
            GatewayConfig {
                degrade_queued_bytes: 1 << 30,
                detach_queued_bytes: 1 << 30,
                drain_deadline: Duration::from_millis(20),
                ..Default::default()
            },
        );
        assert!(tx.send(backlogging(64)).is_ok());
        assert!(tx.send(backlogging(0)).is_ok());
        gw.poll_commands();
        gw.broadcast_frame_bytes(Bytes::from(vec![0u8; 300]));
        // Returns once nothing is pending: the slow session needed
        // several pumps, the wedged one ran out its deadline.
        gw.flush();
        assert_eq!(gw.session_count(), 1, "slow drained, wedged detached");
        assert_eq!(gw.driver_id(), Some(SessionId(1)));
        assert!(gw.take_events().iter().any(|e| e.contains("wedged")));
    }

    #[test]
    fn slow_sole_client_without_an_acceptor_is_thinned_out_not_detached() {
        // The old blocking server throttled the run to a slow link. With
        // non-blocking sends the link's backlog outlives any deadline —
        // zero here, so every backlogged pump is "past it" — and that
        // must not cost the run its only possible client.
        let cfg = GatewayConfig {
            degrade_queued_bytes: 64,
            detach_queued_bytes: 4096,
            drain_deadline: Duration::ZERO,
            ..Default::default()
        };
        let gw = SessionGateway::new(Some(backlogging(8)), None, cfg.clone());
        gw.broadcast_frame_bytes(Bytes::from(vec![0u8; 400]));
        for _ in 0..3 {
            assert!(gw.poll_commands().is_empty(), "no Terminate");
        }
        assert_eq!(gw.session_count(), 1);
        assert!(gw.take_events().iter().any(|e| e.contains("status-only")));
        // The final flush lasts as long as the backlog keeps shrinking.
        gw.flush();
        assert_eq!(gw.session_count(), 1);
        assert!(gw.take_events().iter().any(|e| e.contains("recovered")));

        // A peer that reads nothing at all: flush gives up at the
        // deadline, and the byte cap still ends it (and so the run).
        let cfg = GatewayConfig {
            degrade_queued_bytes: 1 << 30,
            ..cfg
        };
        let gw = SessionGateway::new(Some(backlogging(0)), None, cfg);
        gw.broadcast_frame_bytes(Bytes::from(vec![0u8; 400]));
        gw.flush();
        assert_eq!(gw.session_count(), 1);
        gw.broadcast_frame_bytes(Bytes::from(vec![0u8; 4000]));
        assert_eq!(gw.poll_commands(), vec![SteeringCommand::Terminate]);
    }

    #[test]
    fn frame_cache_is_fifo_with_counters() {
        let mut cache = FrameCache::new(2);
        let k = |step: u64| FrameKey::new(step, 1, None, 0, 2);
        assert_eq!(cache.lookup(k(1)), CacheLookup::Miss);
        cache.insert(k(1), Some(Bytes::from_static(b"one")));
        cache.insert(k(2), None);
        assert!(matches!(cache.lookup(k(1)), CacheLookup::Hit(Some(_))));
        assert!(matches!(cache.lookup(k(2)), CacheLookup::Hit(None)));
        // FIFO: inserting a third evicts key 1 even though it was the
        // most recently *used* (LRU would evict key 2 — and diverge
        // across ranks, because only the master sees payload hits).
        cache.insert(k(3), None);
        assert_eq!(cache.lookup(k(1)), CacheLookup::Miss);
        assert!(matches!(cache.lookup(k(2)), CacheLookup::Hit(None)));
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_cache_is_disabled() {
        let mut cache = FrameCache::new(0);
        let k = FrameKey::new(1, 2, None, 0, 3);
        cache.insert(k, None);
        assert_eq!(cache.lookup(k), CacheLookup::Miss);
        assert!(cache.is_empty());
    }

    #[test]
    fn frame_key_separates_views() {
        let roi = Some(([0u32; 3], [8u32, 8, 8]));
        let base = FrameKey::new(10, 111, roi, 1, 222);
        assert_eq!(base, FrameKey::new(10, 111, roi, 1, 222));
        assert_ne!(base, FrameKey::new(11, 111, roi, 1, 222), "step");
        assert_ne!(base, FrameKey::new(10, 112, roi, 1, 222), "camera");
        assert_ne!(base, FrameKey::new(10, 111, None, 1, 222), "roi");
        assert_ne!(base, FrameKey::new(10, 111, roi, 2, 222), "field");
        assert_ne!(base, FrameKey::new(10, 111, roi, 1, 223), "tf");
    }
}
