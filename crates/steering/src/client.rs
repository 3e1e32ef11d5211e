//! The headless steering client.

use crate::error::{SteeringError, SteeringResult};
use crate::protocol::{ImageFrame, ServerMessage, StatusReport, SteeringCommand};
use crate::transport::Transport;
use hemelb_obs::{ObsReport, Recorder};
use hemelb_parallel::Wire;
use std::cell::{Cell, RefCell};
use std::time::Duration;

/// How a client paces its reconnect attempts after losing the server:
/// capped exponential backoff, giving up after `max_attempts` dials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay before the first retry.
    pub initial: Duration,
    /// Ceiling on the delay between retries.
    pub max: Duration,
    /// Multiplier between consecutive delays.
    pub factor: u32,
    /// Dials per reconnect episode before giving up.
    pub max_attempts: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            initial: Duration::from_millis(10),
            max: Duration::from_secs(1),
            factor: 2,
            max_attempts: 8,
        }
    }
}

impl BackoffPolicy {
    /// The delay before attempt `i` (0-based): `initial · factorⁱ`,
    /// capped at `max`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let factor = self.factor.max(1) as u64;
        let mult = factor.checked_pow(attempt).unwrap_or(u64::MAX);
        self.initial
            .checked_mul(mult as u32)
            .unwrap_or(self.max)
            .min(self.max)
    }
}

/// Dials a fresh connection to the steering server; the client invokes
/// it under [`BackoffPolicy`] whenever the current transport dies.
pub type TransportFactory = Box<dyn Fn() -> std::io::Result<Box<dyn Transport>> + Send>;

/// A steering client driving a running simulation over a transport.
///
/// Every blocking request/response round is recorded as a `steer.rtt`
/// phase in the client's observability recorder, so after a session
/// [`SteeringClient::obs_report`] yields the end-to-end steering
/// latency distribution (p50/p95/p99/max) the paper's responsiveness
/// argument is about.
///
/// Built with [`SteeringClient::with_reconnect`], the client survives a
/// vanishing server: a [`SteeringError::Disconnected`] on any operation
/// triggers a redial loop under the backoff policy, and the operation
/// is retried on the fresh connection. Reconnects are counted as
/// `steer.reconnect` (and dials as `steer.reconnect.attempts`) in the
/// observability report.
pub struct SteeringClient {
    transport: RefCell<Option<Box<dyn Transport>>>,
    factory: Option<TransportFactory>,
    backoff: BackoffPolicy,
    /// Bytes sent over transports that have since been dropped.
    bytes_retired: Cell<u64>,
    obs: RefCell<Recorder>,
}

impl SteeringClient {
    /// Wrap a connected transport. Without a factory a disconnect is
    /// terminal: every later operation returns
    /// [`SteeringError::Disconnected`].
    pub fn new(transport: Box<dyn Transport>) -> Self {
        SteeringClient {
            transport: RefCell::new(Some(transport)),
            factory: None,
            backoff: BackoffPolicy::default(),
            bytes_retired: Cell::new(0),
            obs: RefCell::new(Recorder::new()),
        }
    }

    /// Dial through `factory` (under `backoff`) and keep the factory
    /// for automatic reconnection when the server goes away mid-run.
    pub fn with_reconnect(
        factory: TransportFactory,
        backoff: BackoffPolicy,
    ) -> SteeringResult<Self> {
        let client = SteeringClient {
            transport: RefCell::new(None),
            factory: Some(factory),
            backoff,
            bytes_retired: Cell::new(0),
            obs: RefCell::new(Recorder::new()),
        };
        client.reconnect()?;
        Ok(client)
    }

    /// Drop the current transport and dial a new one under the backoff
    /// policy. Terminal [`SteeringError::Disconnected`] once the
    /// attempts are exhausted (or when there is no factory).
    fn reconnect(&self) -> SteeringResult<()> {
        if let Some(old) = self.transport.borrow_mut().take() {
            self.bytes_retired
                .set(self.bytes_retired.get() + old.bytes_sent());
        }
        let Some(factory) = &self.factory else {
            return Err(SteeringError::Disconnected(
                "steering transport lost and no reconnect factory configured".into(),
            ));
        };
        let mut last = String::new();
        for attempt in 0..self.backoff.max_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(self.backoff.delay(attempt - 1));
            }
            self.obs.borrow_mut().count("steer.reconnect.attempts", 1);
            match factory() {
                Ok(t) => {
                    *self.transport.borrow_mut() = Some(t);
                    self.obs.borrow_mut().count("steer.reconnect", 1);
                    return Ok(());
                }
                Err(e) => last = e.to_string(),
            }
        }
        Err(SteeringError::Disconnected(format!(
            "reconnect gave up after {} attempts: {last}",
            self.backoff.max_attempts.max(1)
        )))
    }

    /// Run `op` against the live transport; on a disconnect, redial and
    /// retry. Bounded episodes: a server that accepts and immediately
    /// dies cannot trap the client in an infinite connect/fail loop.
    fn with_transport<R>(
        &self,
        mut op: impl FnMut(&dyn Transport) -> SteeringResult<R>,
    ) -> SteeringResult<R> {
        const EPISODES: u32 = 3;
        for episode in 0..EPISODES {
            let result = {
                let guard = self.transport.borrow();
                match guard.as_deref() {
                    Some(t) => op(t),
                    None => Err(SteeringError::Disconnected(
                        "steering transport is not connected".into(),
                    )),
                }
            };
            match result {
                Err(e)
                    if e.is_disconnected() && self.factory.is_some() && episode + 1 < EPISODES =>
                {
                    self.reconnect()?;
                }
                other => return other,
            }
        }
        unreachable!("loop always returns on its last episode")
    }

    /// Run `op` once against the live transport, without reconnecting.
    /// Used by the receive paths: blindly retrying a *receive* on a
    /// fresh connection would block forever, because the request that
    /// elicited the lost response died with the old connection. The
    /// request/response wrappers retry at their own level instead.
    fn once<R>(&self, op: impl FnOnce(&dyn Transport) -> SteeringResult<R>) -> SteeringResult<R> {
        let guard = self.transport.borrow();
        match guard.as_deref() {
            Some(t) => op(t),
            None => Err(SteeringError::Disconnected(
                "steering transport is not connected".into(),
            )),
        }
    }

    /// Send one command (redialing first if the server went away).
    pub fn send(&self, cmd: &SteeringCommand) -> SteeringResult<()> {
        self.with_transport(|t| {
            t.send_frame(cmd.to_bytes())?;
            Ok(())
        })
    }

    /// Blocking receive of the next server message.
    pub fn recv(&self) -> SteeringResult<ServerMessage> {
        self.once(|t| {
            let frame = t.recv_frame()?;
            ServerMessage::from_bytes(frame).map_err(|e| SteeringError::Protocol(e.to_string()))
        })
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> SteeringResult<Option<ServerMessage>> {
        self.once(|t| match t.try_recv_frame()? {
            None => Ok(None),
            Some(frame) => ServerMessage::from_bytes(frame)
                .map(Some)
                .map_err(|e| SteeringError::Protocol(e.to_string())),
        })
    }

    /// Block until the next image arrives, returning it together with
    /// the status reports that preceded it.
    pub fn wait_for_image(&self) -> SteeringResult<(ImageFrame, Vec<StatusReport>)> {
        let mut statuses = Vec::new();
        loop {
            match self.recv()? {
                ServerMessage::Image(img) => return Ok((img, statuses)),
                ServerMessage::Status(s) => statuses.push(s),
                ServerMessage::Observables(_) => {}
            }
        }
    }

    /// Request a frame and wait for it (one full steps 2–6 round of the
    /// paper's in situ loop). Returns the frame and the round-trip wall
    /// time; the latency also lands in the `steer.rtt` phase of
    /// [`SteeringClient::obs_report`].
    ///
    /// If the server vanishes mid-round and a reconnect factory is
    /// configured, the *whole round* (request and wait) is retried on
    /// the fresh connection — the response to the lost request died
    /// with the old one.
    pub fn request_frame(&self) -> SteeringResult<(ImageFrame, std::time::Duration)> {
        const EPISODES: u32 = 3;
        let span = self.obs.borrow().begin();
        let img = 'round: {
            for episode in 0..EPISODES {
                self.send(&SteeringCommand::RequestFrame)?;
                match self.wait_for_image() {
                    Ok((img, _statuses)) => break 'round img,
                    Err(e)
                        if e.is_disconnected()
                            && self.factory.is_some()
                            && episode + 1 < EPISODES =>
                    {
                        self.reconnect()?;
                    }
                    Err(e) => return Err(e),
                }
            }
            unreachable!("the final episode returns or breaks")
        };
        let secs = span.end(&mut self.obs.borrow_mut(), "steer.rtt");
        Ok((img, std::time::Duration::from_secs_f64(secs)))
    }

    /// Request in situ observables over the current ROI and wait for
    /// the report (other messages received in between are returned too).
    /// The round trip is recorded under `steer.rtt` like a frame round.
    pub fn request_observables(
        &self,
    ) -> SteeringResult<(crate::protocol::ObservableReport, Vec<ServerMessage>)> {
        let span = self.obs.borrow().begin();
        self.send(&SteeringCommand::RequestObservables)?;
        let mut others = Vec::new();
        let result = loop {
            match self.recv()? {
                ServerMessage::Observables(o) => break (o, others),
                other => others.push(other),
            }
        };
        span.end(&mut self.obs.borrow_mut(), "steer.rtt");
        Ok(result)
    }

    /// Steering bytes this client has sent, across all connections.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_retired.get()
            + self
                .transport
                .borrow()
                .as_ref()
                .map_or(0, |t| t.bytes_sent())
    }

    /// Observability report, including the `steer.rtt` round-trip
    /// latency distribution.
    pub fn obs_report(&self) -> ObsReport {
        self.obs.borrow().report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::duplex_pair;

    #[test]
    fn client_receives_interleaved_messages() {
        let (client_end, server_end) = duplex_pair();
        let client = SteeringClient::new(Box::new(client_end));
        // Simulate the server side by hand.
        let status = StatusReport {
            step: 5,
            mass: 1.0,
            max_speed: 0.01,
            residual: 0.0,
            problems: vec![],
            eta_steps: 95,
            paused: false,
            rebalances: 0,
            lb_imbalance: 1.0,
            sessions: 1,
            cache_hits: 0,
            cache_misses: 0,
        };
        server_end
            .send_frame(ServerMessage::Status(status.clone()).to_bytes())
            .unwrap();
        let img = ImageFrame {
            step: 5,
            width: 1,
            height: 1,
            rgb: vec![1, 2, 3],
        };
        server_end
            .send_frame(ServerMessage::Image(img.clone()).to_bytes())
            .unwrap();
        let (got_img, statuses) = client.wait_for_image().unwrap();
        assert_eq!(got_img, img);
        assert_eq!(statuses, vec![status]);
    }

    #[test]
    fn backoff_delays_grow_and_cap() {
        let b = BackoffPolicy {
            initial: Duration::from_millis(10),
            max: Duration::from_millis(100),
            factor: 3,
            max_attempts: 8,
        };
        assert_eq!(b.delay(0), Duration::from_millis(10));
        assert_eq!(b.delay(1), Duration::from_millis(30));
        assert_eq!(b.delay(2), Duration::from_millis(90));
        assert_eq!(b.delay(3), Duration::from_millis(100), "capped");
        assert_eq!(b.delay(30), Duration::from_millis(100), "no overflow");
    }

    #[test]
    fn client_redials_after_server_loss_and_accumulates_bytes() {
        use crate::transport::{duplex_listener, Acceptor};
        let (connector, acceptor) = duplex_listener();
        let factory: TransportFactory = Box::new(move || {
            connector
                .connect()
                .map(|t| Box::new(t) as Box<dyn Transport>)
        });
        let backoff = BackoffPolicy {
            initial: Duration::from_millis(1),
            max: Duration::from_millis(4),
            factor: 2,
            max_attempts: 4,
        };
        let client = SteeringClient::with_reconnect(factory, backoff).unwrap();
        let s1 = acceptor.try_accept().unwrap().expect("initial dial");
        client.send(&SteeringCommand::Pause).unwrap();
        assert_eq!(
            SteeringCommand::from_bytes(s1.recv_frame().unwrap()).unwrap(),
            SteeringCommand::Pause
        );
        let bytes_before_loss = client.bytes_sent();
        assert!(bytes_before_loss > 0);

        // The server dies; the next send transparently redials.
        drop(s1);
        client.send(&SteeringCommand::Resume).unwrap();
        let s2 = acceptor.try_accept().unwrap().expect("client redialed");
        assert_eq!(
            SteeringCommand::from_bytes(s2.recv_frame().unwrap()).unwrap(),
            SteeringCommand::Resume
        );
        assert!(
            client.bytes_sent() > bytes_before_loss,
            "byte accounting spans connections"
        );
        let report = client.obs_report();
        assert_eq!(report.counters["steer.reconnect"], 2, "dial + redial");
        assert!(report.counters["steer.reconnect.attempts"] >= 2);
    }

    #[test]
    fn reconnect_gives_up_after_max_attempts() {
        let dials = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let dials2 = dials.clone();
        let factory: TransportFactory = Box::new(move || {
            dials2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "nobody home",
            ))
        });
        let backoff = BackoffPolicy {
            initial: Duration::from_millis(1),
            max: Duration::from_millis(2),
            factor: 2,
            max_attempts: 3,
        };
        let err = match SteeringClient::with_reconnect(factory, backoff) {
            Ok(_) => panic!("dial must fail"),
            Err(e) => e,
        };
        assert!(err.is_disconnected(), "{err}");
        assert!(err.to_string().contains("gave up after 3 attempts"));
        assert_eq!(dials.load(std::sync::atomic::Ordering::SeqCst), 3);
    }

    #[test]
    fn disconnect_without_factory_is_terminal() {
        let (client_end, server_end) = duplex_pair();
        let client = SteeringClient::new(Box::new(client_end));
        drop(server_end);
        let err = client.send(&SteeringCommand::Pause).unwrap_err();
        assert!(err.is_disconnected(), "{err}");
    }

    #[test]
    fn commands_arrive_at_the_other_end() {
        let (client_end, server_end) = duplex_pair();
        let client = SteeringClient::new(Box::new(client_end));
        client.send(&SteeringCommand::SetVisRate(7)).unwrap();
        let frame = server_end.recv_frame().unwrap();
        assert_eq!(
            SteeringCommand::from_bytes(frame).unwrap(),
            SteeringCommand::SetVisRate(7)
        );
        assert!(client.bytes_sent() > 0);
    }
}
