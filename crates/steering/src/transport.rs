//! Client ↔ simulation transports.
//!
//! The steering link is *outside* the rank communicator (the client is
//! not a rank). Two implementations: an in-memory duplex (tests,
//! benches, in-process dashboards) and length-prefixed framing over TCP
//! (an out-of-process client, as in the original HemeLB steering
//! architecture).

use crate::protocol::MAX_FRAME_LEN;
use bytes::Bytes;
use crossbeam_channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// A bidirectional, message-framed byte transport.
pub trait Transport: Send {
    /// Send one frame, blocking until the transport has accepted it.
    fn send_frame(&self, frame: Bytes) -> std::io::Result<()>;
    /// Receive one frame if available (non-blocking).
    fn try_recv_frame(&self) -> std::io::Result<Option<Bytes>>;
    /// Receive one frame, blocking until it arrives or the peer closes.
    fn recv_frame(&self) -> std::io::Result<Bytes>;
    /// Bytes sent so far (steering traffic accounting).
    fn bytes_sent(&self) -> u64;

    /// Enqueue one frame without ever blocking the caller: as much as
    /// possible is written immediately, the rest is buffered inside the
    /// transport until a later [`Transport::flush_pending`] (or the
    /// next send) drains it. The steering endpoint uses this so a slow
    /// client cannot stall the simulation loop. Default: fall back to
    /// the blocking send (correct for transports that never block, like
    /// the in-memory duplex).
    fn try_send_frame(&self, frame: Bytes) -> std::io::Result<()> {
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
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
    sent: Mutex<u64>,
}

/// Create a connected pair of in-memory endpoints.
pub fn duplex_pair() -> (InMemoryTransport, InMemoryTransport) {
    let (a_tx, b_rx) = unbounded();
    let (b_tx, a_rx) = unbounded();
    (
        InMemoryTransport {
            tx: a_tx,
            rx: a_rx,
            sent: Mutex::new(0),
        },
        InMemoryTransport {
            tx: b_tx,
            rx: b_rx,
            sent: Mutex::new(0),
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
    fn send_frame(&self, frame: Bytes) -> std::io::Result<()> {
        *self.sent.lock() += frame.len() as u64;
        self.tx.send(frame).map_err(|_| broken())
    }
    fn try_recv_frame(&self) -> std::io::Result<Option<Bytes>> {
        match self.rx.try_recv() {
            Ok(f) => Ok(Some(f)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(broken()),
        }
    }
    fn recv_frame(&self) -> std::io::Result<Bytes> {
        self.rx.recv().map_err(|_| broken())
    }
    fn bytes_sent(&self) -> u64 {
        *self.sent.lock()
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
pub struct TcpTransport {
    stream: Mutex<TcpStream>,
    /// Bytes accepted by `try_send_frame` but not yet written to the
    /// socket (whole frames plus, possibly, the tail of a partially
    /// written one — the head of the queue is always the exact
    /// continuation of what the peer has seen).
    outbuf: Mutex<VecDeque<u8>>,
    /// Set on the first send error; all later sends fail fast.
    poisoned: Mutex<bool>,
    sent: Mutex<u64>,
}

impl TcpTransport {
    /// Wrap a connected stream. The stream is set to non-blocking-free
    /// blocking mode; `try_recv_frame` uses a zero read timeout probe.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            stream: Mutex::new(stream),
            outbuf: Mutex::new(VecDeque::new()),
            poisoned: Mutex::new(false),
            sent: Mutex::new(0),
        })
    }

    /// Dial `addr` with a connect timeout, so a down or unroutable
    /// steering server fails fast instead of hanging the caller in the
    /// kernel's (minutes-long) default connect wait.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        Self::new(stream)
    }

    fn read_exact_frame(stream: &mut TcpStream) -> std::io::Result<Bytes> {
        let mut len = [0u8; 4];
        stream.read_exact(&mut len)?;
        let n = u32::from_le_bytes(len) as usize;
        if n > MAX_FRAME_LEN {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "implausible frame length",
            ));
        }
        let mut buf = vec![0u8; n];
        stream.read_exact(&mut buf)?;
        Ok(Bytes::from(buf))
    }

    fn poisoned_err() -> std::io::Error {
        std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "transport poisoned by an earlier send error",
        )
    }

    fn check_sendable(&self, frame: &Bytes) -> std::io::Result<()> {
        if *self.poisoned.lock() {
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

    /// Non-blockingly drain as much of `out` as the socket accepts.
    /// Returns the bytes still pending. Any real error poisons the
    /// transport. The socket is restored to blocking mode before return.
    fn drain_nonblocking(
        &self,
        stream: &mut TcpStream,
        out: &mut VecDeque<u8>,
    ) -> std::io::Result<u64> {
        if out.is_empty() {
            return Ok(0);
        }
        stream.set_nonblocking(true)?;
        let result = loop {
            let (head, _) = out.as_slices();
            if head.is_empty() {
                break Ok(());
            }
            match stream.write(head) {
                Ok(0) => {
                    break Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "steering peer stopped accepting bytes",
                    ))
                }
                Ok(n) => {
                    out.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e),
            }
        };
        stream.set_nonblocking(false)?;
        match result {
            Ok(()) => Ok(out.len() as u64),
            Err(e) => {
                *self.poisoned.lock() = true;
                Err(e)
            }
        }
    }

    /// Blockingly drain every buffered byte (frame ordering: a blocking
    /// send must not overtake frames enqueued via `try_send_frame`).
    fn drain_blocking(
        &self,
        stream: &mut TcpStream,
        out: &mut VecDeque<u8>,
    ) -> std::io::Result<()> {
        while !out.is_empty() {
            let (head, _) = out.as_slices();
            match stream.write(head) {
                Ok(0) => {
                    *self.poisoned.lock() = true;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "steering peer stopped accepting bytes",
                    ));
                }
                Ok(n) => {
                    out.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    *self.poisoned.lock() = true;
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
fn coalesce(frame: &Bytes) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + frame.len());
    buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    buf.extend_from_slice(frame);
    buf
}

impl Transport for TcpTransport {
    fn send_frame(&self, frame: Bytes) -> std::io::Result<()> {
        self.check_sendable(&frame)?;
        let mut s = self.stream.lock();
        let mut out = self.outbuf.lock();
        // Older enqueued frames first, then this one, as ONE write.
        self.drain_blocking(&mut s, &mut out)?;
        let buf = coalesce(&frame);
        if let Err(e) = s.write_all(&buf).and_then(|()| s.flush()) {
            // Terminal: part of the frame may be on the wire; the
            // stream is unrecoverable, so poison rather than retry.
            *self.poisoned.lock() = true;
            return Err(e);
        }
        *self.sent.lock() += buf.len() as u64;
        Ok(())
    }

    fn try_send_frame(&self, frame: Bytes) -> std::io::Result<()> {
        self.check_sendable(&frame)?;
        let mut s = self.stream.lock();
        let mut out = self.outbuf.lock();
        let buf = coalesce(&frame);
        *self.sent.lock() += buf.len() as u64;
        out.extend(buf);
        self.drain_nonblocking(&mut s, &mut out).map(|_| ())
    }

    fn flush_pending(&self) -> std::io::Result<u64> {
        if *self.poisoned.lock() {
            return Err(Self::poisoned_err());
        }
        let mut s = self.stream.lock();
        let mut out = self.outbuf.lock();
        self.drain_nonblocking(&mut s, &mut out)
    }

    fn pending_bytes(&self) -> u64 {
        self.outbuf.lock().len() as u64
    }

    fn try_recv_frame(&self) -> std::io::Result<Option<Bytes>> {
        let mut s = self.stream.lock();
        s.set_nonblocking(true)?;
        let mut first = [0u8; 1];
        let peeked = s.peek(&mut first);
        // Restore blocking mode before acting on the probe: the early
        // returns used to leave the socket non-blocking, which turned
        // every later blocking `recv_frame` on a half-closed connection
        // into a WouldBlock busy spin instead of a clean disconnect.
        s.set_nonblocking(false)?;
        match peeked {
            Ok(0) => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "steering peer closed the connection",
            )),
            Ok(_) => Ok(Some(Self::read_exact_frame(&mut s)?)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn recv_frame(&self) -> std::io::Result<Bytes> {
        let mut s = self.stream.lock();
        Self::read_exact_frame(&mut s)
    }

    fn bytes_sent(&self) -> u64 {
        *self.sent.lock()
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
        a.send_frame(Bytes::from_static(b"hello")).unwrap();
        assert_eq!(&b.recv_frame().unwrap()[..], b"hello");
        b.send_frame(Bytes::from_static(b"world")).unwrap();
        assert_eq!(&a.recv_frame().unwrap()[..], b"world");
        assert_eq!(a.bytes_sent(), 5);
    }

    #[test]
    fn in_memory_try_recv_is_nonblocking() {
        let (a, b) = duplex_pair();
        assert!(b.try_recv_frame().unwrap().is_none());
        a.send_frame(Bytes::from_static(b"x")).unwrap();
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
        assert!(a.send_frame(Bytes::from_static(b"x")).is_err());
    }

    #[test]
    fn tcp_transport_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client_thread = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let t = TcpTransport::new(stream).unwrap();
            t.send_frame(Bytes::from_static(b"ping")).unwrap();
            t.recv_frame().unwrap()
        });
        let (server_stream, _) = listener.accept().unwrap();
        let server = TcpTransport::new(server_stream).unwrap();
        assert_eq!(&server.recv_frame().unwrap()[..], b"ping");
        server.send_frame(Bytes::from_static(b"pong")).unwrap();
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

    #[test]
    fn tcp_acceptor_is_nonblocking_and_yields_transports() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        assert!(acceptor.try_accept().unwrap().is_none(), "nobody dialing");
        let client = std::thread::spawn(move || {
            let t = TcpTransport::connect(addr, Duration::from_secs(5)).unwrap();
            t.send_frame(Bytes::from_static(b"knock")).unwrap();
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
        c1.send_frame(Bytes::from_static(b"one")).unwrap();
        assert_eq!(&s1.recv_frame().unwrap()[..], b"one");
        // A second client can dial after the first goes away.
        drop(c1);
        let c2 = connector.connect().unwrap();
        let s2 = acceptor.try_accept().unwrap().expect("second dial");
        s2.send_frame(Bytes::from_static(b"two")).unwrap();
        assert_eq!(&c2.recv_frame().unwrap()[..], b"two");
    }

    #[test]
    fn oversized_send_is_refused_without_touching_the_wire() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (server_stream, _) = listener.accept().unwrap();
        let server = TcpTransport::new(server_stream).unwrap();
        let oversized = Bytes::from(vec![0u8; MAX_FRAME_LEN + 1]);
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
        let payload = Bytes::from(vec![7u8; 64 * 1024]);
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
        let frame = Bytes::from(vec![42u8; 256 * 1024]);
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
        a.try_send_frame(Bytes::from_static(b"now")).unwrap();
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
            t.send_frame(Bytes::from(payload)).unwrap();
        });
        let (server_stream, _) = listener.accept().unwrap();
        let server = TcpTransport::new(server_stream).unwrap();
        let got = server.recv_frame().unwrap();
        assert_eq!(&got[..], &expect[..]);
        client_thread.join().unwrap();
    }
}
