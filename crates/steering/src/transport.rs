//! Client ↔ simulation transports.
//!
//! The steering link is *outside* the rank communicator (the client is
//! not a rank). Two implementations: an in-memory duplex (tests,
//! benches, in-process dashboards) and length-prefixed framing over TCP
//! (an out-of-process client, as in the original HemeLB steering
//! architecture).

use crate::protocol::MAX_FRAME_LEN;
use crossbeam_channel::{unbounded, Receiver, Sender, TryRecvError};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A bidirectional, message-framed byte transport.
pub trait Transport: Send {
    /// Send one frame, blocking until the transport has accepted it.
    fn send_frame(&self, frame: Vec<u8>) -> std::io::Result<()>;
    /// Receive one frame if available (non-blocking).
    fn try_recv_frame(&self) -> std::io::Result<Option<Vec<u8>>>;
    /// Receive one frame, blocking until it arrives or the peer closes.
    fn recv_frame(&self) -> std::io::Result<Vec<u8>>;
    /// Bytes sent so far (steering traffic accounting).
    fn bytes_sent(&self) -> u64;

    /// Enqueue one frame without ever blocking the caller: as much as
    /// possible is written immediately, the rest is buffered inside the
    /// transport until a later [`Transport::flush_pending`] (or the
    /// next send) drains it. The steering endpoint uses this so a slow
    /// client cannot stall the simulation loop. Default: fall back to
    /// the blocking send (correct for transports that never block, like
    /// the in-memory duplex).
    fn try_send_frame(&self, frame: Vec<u8>) -> std::io::Result<()> {
        self.send_frame(frame)
    }

    /// Attempt to drain any internally buffered send bytes without
    /// blocking; returns the bytes still pending afterwards.
    fn flush_pending(&self) -> std::io::Result<u64> {
        Ok(0)
    }

    /// Send bytes accepted by [`Transport::try_send_frame`] but not yet
    /// handed to the OS / peer (a growing value means the peer is slow
    /// or wedged).
    fn pending_bytes(&self) -> u64 {
        0
    }
}

/// A listener that yields server-side transports as clients dial in,
/// without ever blocking the simulation loop. The closed loop polls
/// this once per cycle while running headless, so a steering client can
/// attach (or re-attach) to a simulation already in flight.
pub trait Acceptor: Send {
    /// Accept one pending connection, if any (non-blocking).
    fn try_accept(&self) -> std::io::Result<Option<Box<dyn Transport>>>;
}

/// One endpoint of an in-memory duplex.
pub struct InMemoryTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    sent: AtomicU64,
}

/// Create a connected pair of in-memory endpoints.
pub fn duplex_pair() -> (InMemoryTransport, InMemoryTransport) {
    let (a_tx, b_rx) = unbounded();
    let (b_tx, a_rx) = unbounded();
    (
        InMemoryTransport {
            tx: a_tx,
            rx: a_rx,
            sent: AtomicU64::new(0),
        },
        InMemoryTransport {
            tx: b_tx,
            rx: b_rx,
            sent: AtomicU64::new(0),
        },
    )
}

fn broken() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::BrokenPipe, "steering peer disconnected")
}

/// An in-process connection rendezvous: the server side holds the
/// [`DuplexAcceptor`], clients clone the [`DuplexConnector`] and dial
/// as many times as they like. The in-memory analogue of a TCP
/// listener, for tests and benches that exercise client loss and
/// re-attachment without sockets.
pub fn duplex_listener() -> (DuplexConnector, DuplexAcceptor) {
    let (tx, rx) = unbounded();
    (DuplexConnector { tx }, DuplexAcceptor { rx })
}

/// The dialing side of [`duplex_listener`].
#[derive(Clone)]
pub struct DuplexConnector {
    tx: Sender<InMemoryTransport>,
}

impl DuplexConnector {
    /// Dial the acceptor, returning the client end of a fresh duplex.
    pub fn connect(&self) -> std::io::Result<InMemoryTransport> {
        let (client_end, server_end) = duplex_pair();
        self.tx.send(server_end).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "steering acceptor is gone",
            )
        })?;
        Ok(client_end)
    }
}

/// The listening side of [`duplex_listener`].
pub struct DuplexAcceptor {
    rx: Receiver<InMemoryTransport>,
}

impl Acceptor for DuplexAcceptor {
    fn try_accept(&self) -> std::io::Result<Option<Box<dyn Transport>>> {
        match self.rx.try_recv() {
            Ok(t) => Ok(Some(Box::new(t))),
            // Empty and "no connectors left" both mean nobody is
            // dialing right now.
            Err(_) => Ok(None),
        }
    }
}

impl Transport for InMemoryTransport {
    fn send_frame(&self, frame: Vec<u8>) -> std::io::Result<()> {
        self.sent.fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.tx.send(frame).map_err(|_| broken())
    }
    fn try_recv_frame(&self) -> std::io::Result<Option<Vec<u8>>> {
        match self.rx.try_recv() {
            Ok(f) => Ok(Some(f)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(broken()),
        }
    }
    fn recv_frame(&self) -> std::io::Result<Vec<u8>> {
        self.rx.recv().map_err(|_| broken())
    }
    fn bytes_sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }
}

/// Length-prefixed frames over a TCP stream (u32 little-endian length,
/// then payload).
///
/// Sends are **terminal on error**: the length prefix and payload leave
/// in one coalesced buffered write, and any send failure poisons the
/// transport — a partial write desyncs the length-prefixed stream for
/// every subsequent reader, so the only safe reaction is to detach the
/// client, never to retry mid-frame. Poisoned transports fail every
/// later send with `BrokenPipe` immediately.
///
/// Receives are **resumable**: the bytes of a frame that has only
/// partly arrived stay in the transport between polls, so
/// `try_recv_frame` never waits for the rest of a frame, and a later
/// `recv_frame` carries on from where the poll stopped.
pub struct TcpTransport {
    io: Mutex<TcpIo>,
    /// Set on the first send error; all later sends fail fast.
    poisoned: AtomicBool,
    sent: AtomicU64,
}

/// The socket and the bytes queued on either side of it.
struct TcpIo {
    stream: TcpStream,
    /// Bytes accepted by `try_send_frame` but not yet written to the
    /// socket (whole frames plus, possibly, the tail of a partially
    /// written one — the head of the queue is always the exact
    /// continuation of what the peer has seen).
    outbuf: VecDeque<u8>,
    /// The frame being received: its length prefix, then as much of
    /// its payload as has arrived.
    inbuf: Vec<u8>,
}

/// Most bytes one `read` asks for: the receive buffer grows with what
/// arrives, never to the length a prefix merely claims.
const READ_CHUNK: usize = 64 * 1024;

impl TcpIo {
    /// Read on towards the end of the frame in progress. Returns the
    /// payload once the whole frame is in, `None` if the socket has
    /// nothing more for now (non-blocking mode only).
    fn read_frame(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        loop {
            let want = match self.inbuf.get(..4) {
                None => 4,
                Some(prefix) => {
                    let n = u32::from_le_bytes(prefix.try_into().expect("4 bytes")) as usize;
                    if n > MAX_FRAME_LEN {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "implausible frame length",
                        ));
                    }
                    4 + n
                }
            };
            let have = self.inbuf.len();
            if have == want {
                let mut frame = std::mem::take(&mut self.inbuf);
                frame.drain(..4);
                return Ok(Some(frame));
            }
            self.inbuf.resize(have + (want - have).min(READ_CHUNK), 0);
            let got = self.stream.read(&mut self.inbuf[have..]);
            self.inbuf.truncate(have + got.as_ref().map_or(0, |&n| n));
            match got {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        if have == 0 {
                            "steering peer closed the connection"
                        } else {
                            "steering peer closed the connection mid-frame"
                        },
                    ))
                }
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

impl TcpTransport {
    /// Wrap a connected stream, left in blocking mode;
    /// `try_recv_frame` and the non-blocking sends switch it for the
    /// length of one call.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            io: Mutex::new(TcpIo {
                stream,
                outbuf: VecDeque::new(),
                inbuf: Vec::new(),
            }),
            poisoned: AtomicBool::new(false),
            sent: AtomicU64::new(0),
        })
    }

    /// Dial `addr` with a connect timeout, so a down or unroutable
    /// steering server fails fast instead of hanging the caller in the
    /// kernel's (minutes-long) default connect wait.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        Self::new(stream)
    }

    /// The socket state. Nothing under this lock panics part-way
    /// through an update (I/O failures are returned, and a send that
    /// fails part-way poisons the transport before it returns), so a
    /// lock poisoned by a panicking caller is taken over as it is.
    fn io(&self) -> MutexGuard<'_, TcpIo> {
        self.io.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Relaxed);
    }

    fn poisoned_err() -> std::io::Error {
        std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "transport poisoned by an earlier send error",
        )
    }

    fn check_sendable(&self, frame: &[u8]) -> std::io::Result<()> {
        if self.poisoned.load(Ordering::Relaxed) {
            return Err(Self::poisoned_err());
        }
        if frame.len() > MAX_FRAME_LEN {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "frame exceeds MAX_FRAME_LEN",
            ));
        }
        Ok(())
    }

    /// Non-blockingly drain as much of the send queue as the socket
    /// accepts. Returns the bytes still pending. Any real error poisons
    /// the transport. The socket is restored to blocking mode before
    /// return.
    fn drain_nonblocking(&self, io: &mut TcpIo) -> std::io::Result<u64> {
        if io.outbuf.is_empty() {
            return Ok(0);
        }
        io.stream.set_nonblocking(true)?;
        let result = loop {
            let (head, _) = io.outbuf.as_slices();
            if head.is_empty() {
                break Ok(());
            }
            match io.stream.write(head) {
                Ok(0) => {
                    break Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "steering peer stopped accepting bytes",
                    ))
                }
                Ok(n) => {
                    io.outbuf.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e),
            }
        };
        io.stream.set_nonblocking(false)?;
        match result {
            Ok(()) => Ok(io.outbuf.len() as u64),
            Err(e) => {
                self.poison();
                Err(e)
            }
        }
    }

    /// Blockingly drain every buffered byte (frame ordering: a blocking
    /// send must not overtake frames enqueued via `try_send_frame`).
    fn drain_blocking(&self, io: &mut TcpIo) -> std::io::Result<()> {
        while !io.outbuf.is_empty() {
            let (head, _) = io.outbuf.as_slices();
            match io.stream.write(head) {
                Ok(0) => {
                    self.poison();
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "steering peer stopped accepting bytes",
                    ));
                }
                Ok(n) => {
                    io.outbuf.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.poison();
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

/// One coalesced wire image of a frame: 4-byte LE length prefix and
/// payload in a single buffer, so the prefix and body can never be
/// split across two syscalls by the sender (a failure between two
/// writes would desync the stream for every later frame).
fn coalesce(frame: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + frame.len());
    buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    buf.extend_from_slice(frame);
    buf
}

impl Transport for TcpTransport {
    fn send_frame(&self, frame: Vec<u8>) -> std::io::Result<()> {
        self.check_sendable(&frame)?;
        let mut io = self.io();
        // Older enqueued frames first, then this one, as ONE write.
        self.drain_blocking(&mut io)?;
        let buf = coalesce(&frame);
        if let Err(e) = io.stream.write_all(&buf).and_then(|()| io.stream.flush()) {
            // Terminal: part of the frame may be on the wire; the
            // stream is unrecoverable, so poison rather than retry.
            self.poison();
            return Err(e);
        }
        self.sent.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn try_send_frame(&self, frame: Vec<u8>) -> std::io::Result<()> {
        self.check_sendable(&frame)?;
        let mut io = self.io();
        let buf = coalesce(&frame);
        self.sent.fetch_add(buf.len() as u64, Ordering::Relaxed);
        io.outbuf.extend(buf);
        self.drain_nonblocking(&mut io).map(|_| ())
    }

    fn flush_pending(&self) -> std::io::Result<u64> {
        if self.poisoned.load(Ordering::Relaxed) {
            return Err(Self::poisoned_err());
        }
        self.drain_nonblocking(&mut self.io())
    }

    fn pending_bytes(&self) -> u64 {
        self.io().outbuf.len() as u64
    }

    fn try_recv_frame(&self) -> std::io::Result<Option<Vec<u8>>> {
        let mut io = self.io();
        io.stream.set_nonblocking(true)?;
        let frame = io.read_frame();
        // Restore blocking mode on every return: a socket left
        // non-blocking turns a later blocking `recv_frame` on a
        // half-closed connection into a WouldBlock busy spin instead of
        // a clean disconnect.
        io.stream.set_nonblocking(false)?;
        frame
    }

    fn recv_frame(&self) -> std::io::Result<Vec<u8>> {
        // A blocking socket only runs dry on a read timeout.
        self.io()
            .read_frame()?
            .ok_or_else(|| std::io::ErrorKind::WouldBlock.into())
    }

    fn bytes_sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }
}

/// A non-blocking TCP listener yielding [`TcpTransport`]s: the
/// server-side door steering clients knock on.
pub struct TcpAcceptor {
    listener: TcpListener,
}

impl TcpAcceptor {
    /// Bind and start listening (non-blocking).
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpAcceptor { listener })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }
}

impl Acceptor for TcpAcceptor {
    fn try_accept(&self) -> std::io::Result<Option<Box<dyn Transport>>> {
        match self.listener.accept() {
            Ok((stream, _peer)) => {
                // Accepted sockets inherit the listener's non-blocking
                // flag on some platforms; transports expect blocking.
                stream.set_nonblocking(false)?;
                Ok(Some(Box::new(TcpTransport::new(stream)?)))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_duplex_round_trip() {
        let (a, b) = duplex_pair();
        a.send_frame(b"hello".to_vec()).unwrap();
        assert_eq!(&b.recv_frame().unwrap()[..], b"hello");
        b.send_frame(b"world".to_vec()).unwrap();
        assert_eq!(&a.recv_frame().unwrap()[..], b"world");
        assert_eq!(a.bytes_sent(), 5);
    }

    #[test]
    fn in_memory_try_recv_is_nonblocking() {
        let (a, b) = duplex_pair();
        assert!(b.try_recv_frame().unwrap().is_none());
        a.send_frame(b"x".to_vec()).unwrap();
        // The channel delivers promptly (same process).
        let mut got = None;
        while got.is_none() {
            got = b.try_recv_frame().unwrap();
        }
        assert_eq!(&got.unwrap()[..], b"x");
    }

    #[test]
    fn disconnected_peer_is_an_error() {
        let (a, b) = duplex_pair();
        drop(b);
        assert!(a.send_frame(b"x".to_vec()).is_err());
    }

    #[test]
    fn tcp_transport_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client_thread = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let t = TcpTransport::new(stream).unwrap();
            t.send_frame(b"ping".to_vec()).unwrap();
            t.recv_frame().unwrap()
        });
        let (server_stream, _) = listener.accept().unwrap();
        let server = TcpTransport::new(server_stream).unwrap();
        assert_eq!(&server.recv_frame().unwrap()[..], b"ping");
        server.send_frame(b"pong".to_vec()).unwrap();
        let reply = client_thread.join().unwrap();
        assert_eq!(&reply[..], b"pong");
        assert!(server.bytes_sent() >= 8);
    }

    #[test]
    fn half_closed_socket_is_terminal_not_a_busy_spin() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            drop(stream); // connect, then vanish
        });
        let (server_stream, _) = listener.accept().unwrap();
        let server = TcpTransport::new(server_stream).unwrap();
        client.join().unwrap();
        // Poll until the FIN is visible; must surface as UnexpectedEof.
        let err = loop {
            match server.try_recv_frame() {
                Ok(None) => std::thread::yield_now(),
                Ok(Some(_)) => panic!("no frame was ever sent"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // The socket must be back in blocking mode: a blocking recv on
        // the half-closed stream fails promptly with EOF rather than
        // spinning on WouldBlock.
        let err = server.recv_frame().unwrap_err();
        assert_ne!(err.kind(), std::io::ErrorKind::WouldBlock);
    }

    /// A client that has sent a length prefix and half a payload must
    /// not stall the poller: `try_recv_frame` keeps what arrived and
    /// returns `Ok(None)`, hands over the whole frame once the rest
    /// lands, and an EOF inside a frame is `UnexpectedEof`. The poll
    /// runs on a helper thread, so a blocking poll fails the test by
    /// its deadline instead of hanging it.
    #[test]
    fn partial_frame_poll_returns_none_and_resumes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_stream, _) = listener.accept().unwrap();
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 253) as u8).collect();
        let wire = coalesce(&payload);
        let half = 4 + payload.len() / 2;
        client.write_all(&wire[..half]).unwrap();
        // Wait until all of it is readable, so the poll meets a partial
        // frame rather than an empty socket.
        while server_stream.peek(&mut vec![0; half]).unwrap() < half {}
        let server = TcpTransport::new(server_stream).unwrap();

        let (tx, rx) = std::sync::mpsc::channel();
        let poller = std::thread::spawn(move || {
            let polled = server.try_recv_frame().map_err(|e| e.kind());
            tx.send((server, polled)).unwrap();
        });
        let (server, polled) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("try_recv_frame blocked on a partial frame");
        poller.join().unwrap();
        assert_eq!(polled, Ok(None));

        client.write_all(&wire[half..]).unwrap();
        let frame = loop {
            match server.try_recv_frame().unwrap() {
                Some(frame) => break frame,
                None => std::thread::yield_now(),
            }
        };
        assert_eq!(frame, payload);

        // A second frame cut off by EOF after its prefix and one byte.
        client.write_all(&wire[..5]).unwrap();
        drop(client);
        let err = loop {
            match server.try_recv_frame() {
                Ok(None) => std::thread::yield_now(),
                Ok(Some(_)) => panic!("the second frame never completed"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    /// A thread that panicked holding the socket lock does not wedge
    /// the transport: the next caller takes the lock over.
    #[test]
    fn poisoned_socket_lock_is_taken_over() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let server = TcpTransport::new(listener.accept().unwrap().0).unwrap();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _io = server.io();
                panic!("poison the socket lock");
            })
            .join()
            .is_err()
        });
        assert!(panicked && server.io.is_poisoned());
        server.send_frame(b"after".to_vec()).unwrap();
        let client = TcpTransport::new(client).unwrap();
        assert_eq!(client.recv_frame().unwrap(), b"after");
    }

    #[test]
    fn tcp_acceptor_is_nonblocking_and_yields_transports() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        assert!(acceptor.try_accept().unwrap().is_none(), "nobody dialing");
        let client = std::thread::spawn(move || {
            let t = TcpTransport::connect(addr, Duration::from_secs(5)).unwrap();
            t.send_frame(b"knock".to_vec()).unwrap();
        });
        let server = loop {
            if let Some(t) = acceptor.try_accept().unwrap() {
                break t;
            }
            std::thread::yield_now();
        };
        assert_eq!(&server.recv_frame().unwrap()[..], b"knock");
        client.join().unwrap();
    }

    #[test]
    fn duplex_listener_accepts_repeated_dials() {
        let (connector, acceptor) = duplex_listener();
        assert!(acceptor.try_accept().unwrap().is_none());
        let c1 = connector.connect().unwrap();
        let s1 = acceptor.try_accept().unwrap().expect("first dial");
        c1.send_frame(b"one".to_vec()).unwrap();
        assert_eq!(&s1.recv_frame().unwrap()[..], b"one");
        // A second client can dial after the first goes away.
        drop(c1);
        let c2 = connector.connect().unwrap();
        let s2 = acceptor.try_accept().unwrap().expect("second dial");
        s2.send_frame(b"two".to_vec()).unwrap();
        assert_eq!(&c2.recv_frame().unwrap()[..], b"two");
    }

    #[test]
    fn oversized_send_is_refused_without_touching_the_wire() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (server_stream, _) = listener.accept().unwrap();
        let server = TcpTransport::new(server_stream).unwrap();
        let oversized = vec![0u8; MAX_FRAME_LEN + 1];
        let err = server.send_frame(oversized.clone()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        let err = server.try_send_frame(oversized).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        // Nothing was counted or buffered.
        assert_eq!(server.bytes_sent(), 0);
        assert_eq!(server.pending_bytes(), 0);
    }

    #[test]
    fn send_error_poisons_the_transport_terminally() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_stream, _) = listener.accept().unwrap();
        let server = TcpTransport::new(server_stream).unwrap();
        drop(client); // peer vanishes
        let payload = vec![7u8; 64 * 1024];
        // The kernel may accept a few frames into its buffer before the
        // RST surfaces; keep sending until the error shows up.
        let mut saw_error = false;
        for _ in 0..1000 {
            if server.send_frame(payload.clone()).is_err() {
                saw_error = true;
                break;
            }
        }
        assert!(saw_error, "send to a gone peer must eventually fail");
        // Terminal: every later send fails fast with BrokenPipe — the
        // stream may hold a half-written frame, so no retry is safe.
        let err = server.send_frame(payload.clone()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        let err = server.try_send_frame(payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        assert!(server.flush_pending().is_err());
    }

    #[test]
    fn try_send_buffers_instead_of_blocking_and_flush_drains() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client_stream = TcpStream::connect(addr).unwrap();
        let (server_stream, _) = listener.accept().unwrap();
        let server = TcpTransport::new(server_stream).unwrap();

        // A peer that reads nothing: the socket buffer eventually
        // fills, and try_send must buffer internally, never block.
        let frame = vec![42u8; 256 * 1024];
        let nframes = 64usize;
        for _ in 0..nframes {
            server.try_send_frame(frame.clone()).unwrap();
        }
        assert!(
            server.pending_bytes() > 0,
            "64 x 256KiB against an idle peer must exceed the socket buffer"
        );
        // bytes_sent counts at enqueue: prefix + payload per frame.
        assert_eq!(server.bytes_sent(), (nframes * (4 + frame.len())) as u64);

        // Reader drains; flush_pending pushes the backlog through.
        let client = TcpTransport::new(client_stream).unwrap();
        let reader = std::thread::spawn(move || {
            let mut total = 0usize;
            for _ in 0..nframes {
                total += client.recv_frame().unwrap().len();
            }
            total
        });
        loop {
            if server.flush_pending().unwrap() == 0 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(server.pending_bytes(), 0);
        assert_eq!(reader.join().unwrap(), nframes * frame.len());
    }

    #[test]
    fn in_memory_transport_never_backlogs() {
        let (a, b) = duplex_pair();
        a.try_send_frame(b"now".to_vec()).unwrap();
        assert_eq!(a.pending_bytes(), 0);
        assert_eq!(a.flush_pending().unwrap(), 0);
        assert_eq!(&b.recv_frame().unwrap()[..], b"now");
    }

    #[test]
    fn tcp_large_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        let client_thread = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let t = TcpTransport::new(stream).unwrap();
            t.send_frame(payload).unwrap();
        });
        let (server_stream, _) = listener.accept().unwrap();
        let server = TcpTransport::new(server_stream).unwrap();
        let got = server.recv_frame().unwrap();
        assert_eq!(&got[..], &expect[..]);
        client_thread.join().unwrap();
    }
}
