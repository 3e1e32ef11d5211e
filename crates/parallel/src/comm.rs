//! Ranks, worlds and point-to-point messaging.
//!
//! A world is the mailboxes of `P` ranks; each rank holds one
//! [`Communicator`] (its MPI-communicator analogue) through which it sends
//! and receives tagged byte payloads. Semantics mirror MPI:
//!
//! * sends are asynchronous and never block (buffered channels);
//! * receives match on `(source, tag)` and are FIFO within a match;
//! * messages arriving before they are wanted are buffered locally;
//! * collectives receive **per source rank**, never "from anyone":
//!   FIFO `(source, tag)` matching then guarantees that back-to-back
//!   invocations of the same collective cannot mix rounds, even when
//!   some ranks race ahead (a rank completes a collective as soon as
//!   *its* messages arrived, not when everyone's have).
//!
//! Every send is recorded in the rank's [`CommStats`] under the
//! [`TagClass`] derived from the tag, which is how
//! the experiment harness attributes traffic to halo exchange,
//! visualisation, steering, and so on.

use crate::error::{CommError, CommResult};
use crate::fault::{FaultSession, RankKilled, WorldAborted};
use crate::stats::{CommStats, FaultStat, TagClass};
use crate::tag::Tag;
use crate::wire::{Wire, WireReader, WireWriter};
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use hemelb_obs::{ObsReport, Recorder};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One in-flight message. `seq` is a per-`(src, dst)` sequence number
/// assigned only when a fault session is active (0 = unsequenced); it is
/// what lets receivers drop injected duplicates exactly.
#[derive(Debug, Clone)]
struct Envelope {
    src: usize,
    tag: Tag,
    payload: Vec<u8>,
    seq: u64,
}

/// Factory for a set of connected [`Communicator`]s; the SPMD runner
/// ([`run_spmd`](crate::run_spmd) and its variants) is its only caller.
pub(crate) struct World;

impl World {
    /// Create `size` connected communicators, one per rank, with an
    /// optional shared fault session every communicator consults.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub(crate) fn communicators(
        size: usize,
        fault: Option<Arc<FaultSession>>,
    ) -> Vec<Communicator> {
        assert!(size > 0, "world size must be positive");
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = unbounded::<Envelope>();
            senders.push(tx);
            receivers.push(rx);
        }
        let aborted = Arc::new(AtomicBool::new(false));
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| {
                // A rank holds no sender to itself: self-sends are
                // delivered locally in `send`.
                let peer_senders: Vec<Option<Sender<Envelope>>> = senders
                    .iter()
                    .enumerate()
                    .map(|(dst, tx)| (dst != rank).then(|| tx.clone()))
                    .collect();
                Communicator {
                    rank,
                    size,
                    senders: peer_senders,
                    inbox: rx,
                    pending: RefCell::new(VecDeque::new()),
                    stats: RefCell::new(CommStats::new()),
                    obs: RefCell::new(Recorder::new()),
                    aborted: Arc::clone(&aborted),
                    fault: fault.clone(),
                    seq_next: RefCell::new(vec![0; size]),
                    seq_seen: RefCell::new(vec![0; size]),
                }
            })
            .collect()
    }
}

/// A rank's handle onto the world: identity, point-to-point messaging and
/// collectives (the collectives live in this type too; see the
/// `collective` impl block below).
#[derive(Debug)]
pub struct Communicator {
    rank: usize,
    size: usize,
    /// `senders[dst]` is `Some` for every peer, `None` for `dst == rank`.
    senders: Vec<Option<Sender<Envelope>>>,
    inbox: Receiver<Envelope>,
    /// Messages received from the channel but not yet matched.
    pending: RefCell<VecDeque<Envelope>>,
    stats: RefCell<CommStats>,
    /// Per-rank observability recorder: higher layers (solver phases,
    /// steering loop, pipelines) record named spans here so one report
    /// per rank covers the whole stack.
    obs: RefCell<Recorder>,
    /// World-wide abort marker: set by the first rank that dies (a panic
    /// or an injected kill), honoured by every rank's next wait.
    aborted: Arc<AtomicBool>,
    /// Shared fault-injection session, if this world runs under a
    /// [`FaultPlan`](crate::fault::FaultPlan). `None` costs one branch
    /// per operation.
    fault: Option<Arc<FaultSession>>,
    /// `seq_next[dst]`: last sequence number assigned to a network send
    /// towards `dst` (fault sessions only).
    seq_next: RefCell<Vec<u64>>,
    /// `seq_seen[src]`: highest sequence number accepted from `src`
    /// (fault sessions only); lower or equal arrivals are duplicates.
    seq_seen: RefCell<Vec<u64>>,
}

/// Reserved tag used to wake every rank out of blocking receives when a
/// dying rank aborts the world. Kept at the top of the
/// collective range, far from the per-round tags real collectives use.
const T_ABORT: Tag = Tag::collective(0x00FF_FFFF);

impl Communicator {
    /// This rank's index in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether this rank is rank 0 (the conventional master).
    #[inline]
    pub fn is_master(&self) -> bool {
        self.rank == 0
    }

    /// Snapshot of this rank's communication counters.
    pub fn stats(&self) -> CommStats {
        self.stats.borrow().clone()
    }

    /// Record a synchronisation point (used by blocking collectives; also
    /// available to higher layers that implement their own sync
    /// structure, e.g. the compositing tree).
    pub fn note_sync(&self) {
        self.stats.borrow_mut().record_sync();
    }

    /// Record participation in one repartition event (adaptive or
    /// steered); the migrated bytes themselves are accounted under
    /// [`TagClass::Migration`].
    pub fn note_rebalance(&self) {
        self.stats.borrow_mut().record_rebalance();
    }

    /// Run `f` with this rank's observability recorder borrowed mutably.
    /// The recorder is shared by every layer running on this rank, so
    /// phase names should be namespaced (`lb.collide`, `steer.poll`, …).
    pub fn with_obs<R>(&self, f: impl FnOnce(&mut Recorder) -> R) -> R {
        f(&mut self.obs.borrow_mut())
    }

    /// Snapshot this rank's observability report, stamped with the rank.
    pub fn obs_report(&self) -> ObsReport {
        let mut r = self.obs.borrow().report();
        r.rank = Some(self.rank);
        r
    }

    /// Disable (or re-enable) the observability recorder for this rank;
    /// a disabled recorder turns every span into a single-branch no-op.
    pub fn set_obs_enabled(&self, on: bool) {
        self.obs.borrow_mut().set_enabled(on);
    }

    // ----- fault injection -----------------------------------------------

    /// Advance this rank's fault clock (see
    /// [`FaultPlan`](crate::fault::FaultPlan)); message faults arm once
    /// the sending rank's clock reaches their step, and a `KillRank`
    /// event whose step is reached fires here: the rank aborts the
    /// world, then dies like a lost node. A no-op without an active
    /// fault session.
    pub fn set_fault_step(&self, step: u64) {
        let Some(fs) = &self.fault else { return };
        self.abort_check();
        if fs.advance(self.rank, step) {
            self.with_obs(|o| o.count("fault.injected.kill", 1));
            self.abort_world();
            std::panic::panic_any(RankKilled);
        }
    }

    /// Mark the world aborted and wake every peer out of its wait; the
    /// first dying rank posts, later ones find the marker set.
    fn abort_world(&self) {
        if !self.aborted.swap(true, Ordering::SeqCst) {
            for tx in self.senders.iter().flatten() {
                let _ = tx.send(Envelope {
                    src: self.rank,
                    tag: T_ABORT,
                    payload: Vec::new(),
                    seq: 0,
                });
            }
        }
    }

    /// Die with `WorldAborted` if another rank's death aborted the world.
    #[inline]
    fn abort_check(&self) {
        if self.aborted.load(Ordering::SeqCst) {
            std::panic::panic_any(WorldAborted);
        }
    }

    /// Admit one envelope from the channel: dies with the world on an
    /// abort wake-up (blocking or polling, whoever reads it), drops
    /// injected duplicates (`None`), passes everything else through.
    fn intake(&self, env: Envelope) -> Option<Envelope> {
        if env.tag == T_ABORT {
            std::panic::panic_any(WorldAborted);
        }
        if self.fault.is_some() && env.seq != 0 {
            let mut seen = self.seq_seen.borrow_mut();
            if env.seq <= seen[env.src] {
                drop(seen);
                self.note_fault(FaultStat::Dedup);
                return None;
            }
            seen[env.src] = env.seq;
        }
        Some(env)
    }

    /// Record an injected/absorbed fault in both `CommStats` and the obs
    /// counters.
    fn note_fault(&self, kind: FaultStat) {
        self.stats.borrow_mut().record_fault(kind);
        let name = match kind {
            FaultStat::Delay => "fault.injected.delay",
            FaultStat::Drop => "fault.injected.drop",
            FaultStat::Duplicate => "fault.injected.duplicate",
            FaultStat::Dedup => "fault.deduped",
        };
        self.with_obs(|o| o.count(name, 1));
    }

    // ----- point to point ------------------------------------------------

    fn check_rank(&self, rank: usize) -> CommResult<()> {
        if rank < self.size {
            Ok(())
        } else {
            Err(CommError::InvalidRank {
                rank,
                size: self.size,
            })
        }
    }

    /// Send `payload` to `dst` under `tag`. Never blocks (except under
    /// an injected delay fault, which models a slow link by stalling
    /// the sender — preserving per-pair FIFO order).
    pub fn send(&self, dst: usize, tag: Tag, payload: Vec<u8>) -> CommResult<()> {
        self.check_rank(dst)?;
        let mut env = Envelope {
            src: self.rank,
            tag,
            payload,
            seq: 0,
        };
        match &self.senders[dst] {
            // Self-sends are delivered locally, do not count as network
            // traffic, and are never fault-injected.
            None => {
                self.pending.borrow_mut().push_back(env);
                Ok(())
            }
            Some(tx) => {
                let mut duplicate = false;
                if let Some(fs) = &self.fault {
                    let f = fs.send_faults(self.rank, tag.class());
                    if f.delay_ms > 0 {
                        self.note_fault(FaultStat::Delay);
                        std::thread::sleep(Duration::from_millis(f.delay_ms));
                    }
                    // Sequence every network send (a dropped message
                    // still consumes its number, so dedup stays exact).
                    let seq = {
                        let mut seqs = self.seq_next.borrow_mut();
                        seqs[dst] += 1;
                        seqs[dst]
                    };
                    if f.drop {
                        self.note_fault(FaultStat::Drop);
                        return Ok(());
                    }
                    env.seq = seq;
                    duplicate = f.duplicate;
                }
                let len = env.payload.len();
                let t0 = Instant::now();
                let retransmit = duplicate.then(|| env.clone());
                let result = tx.send(env).map_err(|_| {
                    // A peer that died aborted the world before its
                    // inbox closed: die with it, not with this error.
                    self.abort_check();
                    CommError::Disconnected { peer: dst }
                });
                if let Some(again) = retransmit {
                    // Identical envelope, identical sequence number: the
                    // receiver's dedup drops it silently.
                    self.note_fault(FaultStat::Duplicate);
                    let _ = tx.send(again);
                }
                let mut stats = self.stats.borrow_mut();
                stats.record_send(tag.class(), len);
                stats.record_send_time(tag.class(), t0.elapsed().as_secs_f64());
                result
            }
        }
    }

    /// The one place a rank blocks. Returns the first envelope `want`
    /// accepts: a buffered one at once (FIFO within a match, no wait
    /// recorded), otherwise the next matching arrival, buffering the
    /// rest. Time spent blocked is booked to `class` as recv wait (the
    /// halo-wait / composite-wait split the observability layer
    /// reports); `blame` is the peer a `Timeout` (`until` passed) or
    /// `Disconnected` error names. An aborted world is honoured on
    /// entry and as soon as its wake-up is read.
    fn wait_for(
        &self,
        class: TagClass,
        blame: usize,
        until: Option<Instant>,
        want: impl Fn(&Envelope) -> bool,
    ) -> CommResult<Envelope> {
        use RecvTimeoutError::{Disconnected, Timeout};
        self.abort_check();
        if let Some(env) = self.take_pending(&want) {
            return Ok(env);
        }
        let t0 = Instant::now();
        let result = loop {
            let left = until.map(|t| t.saturating_duration_since(Instant::now()));
            let arrived = match left {
                None => self.inbox.recv().map_err(|_| Disconnected),
                Some(left) => self.inbox.recv_timeout(left),
            };
            match arrived {
                Ok(env) => match self.intake(env) {
                    Some(env) if want(&env) => break Ok(env),
                    Some(env) => self.pending.borrow_mut().push_back(env),
                    None => {}
                },
                Err(Timeout) => {
                    let waited_ms = t0.elapsed().as_millis() as u64;
                    break Err(CommError::Timeout {
                        peer: blame,
                        waited_ms,
                    });
                }
                Err(Disconnected) => break Err(CommError::Disconnected { peer: blame }),
            }
        };
        self.stats
            .borrow_mut()
            .record_recv_wait(class, t0.elapsed().as_secs_f64());
        result
    }

    /// Remove and return the oldest buffered envelope `want` accepts.
    fn take_pending(&self, want: impl Fn(&Envelope) -> bool) -> Option<Envelope> {
        let mut pending = self.pending.borrow_mut();
        let pos = pending.iter().position(want)?;
        pending.remove(pos)
    }

    /// [`wait_for`](Self::wait_for) the next message from `src` under
    /// `tag`, without limit or until the instant `until`.
    fn recv_until(&self, src: usize, tag: Tag, until: Option<Instant>) -> CommResult<Vec<u8>> {
        self.check_rank(src)?;
        let env = self.wait_for(tag.class(), src, until, |e| e.src == src && e.tag == tag)?;
        Ok(env.payload)
    }

    /// Blocking receive of the next message from `src` under `tag`.
    pub fn recv(&self, src: usize, tag: Tag) -> CommResult<Vec<u8>> {
        self.recv_until(src, tag, None)
    }

    /// Like [`recv`](Self::recv), but gives up with
    /// [`CommError::Timeout`] if no matching message arrives within
    /// `timeout` — the degradation primitive: a caller that would
    /// otherwise hang forever on a slow or dead peer can drop the
    /// contribution and move on.
    pub fn recv_deadline(&self, src: usize, tag: Tag, timeout: Duration) -> CommResult<Vec<u8>> {
        self.recv_until(src, tag, Some(Instant::now() + timeout))
    }

    /// Blocking receive of the next message under `tag` from *any* source.
    /// Returns `(source, payload)`.
    pub fn recv_any(&self, tag: Tag) -> CommResult<(usize, Vec<u8>)> {
        let env = self.wait_for(tag.class(), usize::MAX, None, |e| e.tag == tag)?;
        Ok((env.src, env.payload))
    }

    /// Blocking receive of the next message under `tag` from any source
    /// in `sources`. Returns `(source, payload)` in arrival order across
    /// calls.
    pub fn recv_any_of(&self, tag: Tag, sources: &[usize]) -> CommResult<(usize, Vec<u8>)> {
        let blame = sources.first().copied().unwrap_or(usize::MAX);
        let env = self.wait_for(tag.class(), blame, None, |e| {
            e.tag == tag && sources.contains(&e.src)
        })?;
        Ok((env.src, env.payload))
    }

    /// Non-blocking receive from `src` under `tag`.
    pub fn try_recv(&self, src: usize, tag: Tag) -> CommResult<Option<Vec<u8>>> {
        self.check_rank(src)?;
        self.drain_inbox();
        Ok(self
            .take_pending(|e| e.src == src && e.tag == tag)
            .map(|env| env.payload))
    }

    /// Move everything waiting in the channel into the local buffer.
    fn drain_inbox(&self) {
        while let Ok(env) = self.inbox.try_recv() {
            if let Some(env) = self.intake(env) {
                self.pending.borrow_mut().push_back(env);
            }
        }
    }

    // ----- neighbourhood exchange ----------------------------------------

    /// Sparse neighbourhood all-to-all: send `outgoing[i] = (peer, bytes)`
    /// and receive exactly one message under `tag` from each rank in
    /// `expect_from`. Returns received payloads in the order of
    /// `expect_from`.
    ///
    /// Deadlock-free because sends are buffered; this is the idiom the LB
    /// halo exchange and the particle hand-off both use, and its traffic
    /// is what the paper's Table I calls "communication cost".
    ///
    /// Internally the receives drain in **arrival order** (one slow peer
    /// does not serialize handling of already-delivered payloads); only
    /// the returned vector is laid out in `expect_from` order.
    pub fn exchange(
        &self,
        tag: Tag,
        outgoing: Vec<(usize, Vec<u8>)>,
        expect_from: &[usize],
    ) -> CommResult<Vec<Vec<u8>>> {
        self.exchange_start(tag, outgoing)?;
        let arrived = self.exchange_finish(tag, expect_from)?;
        // Reorder into `expect_from` order for callers that index the
        // result positionally. `expect_from` may repeat a source (the
        // pairwise tests do); consume arrivals per source FIFO.
        let mut slots: Vec<Option<Vec<u8>>> = vec![None; expect_from.len()];
        for (src, payload) in arrived {
            let slot = expect_from
                .iter()
                .zip(&slots)
                .position(|(&want, filled)| want == src && filled.is_none())
                .expect("exchange_finish returns only expected sources");
            slots[slot] = Some(payload);
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("exchange_finish filled every expected slot"))
            .collect())
    }

    /// First half of a split [`exchange`](Self::exchange): post all sends
    /// and return immediately, leaving the messages in flight. Pair with
    /// [`exchange_finish`](Self::exchange_finish) (or per-peer
    /// [`recv_any_of`](Self::recv_any_of) calls) after doing useful work
    /// — the communication/computation overlap the overlapped LB step is
    /// built on.
    fn exchange_start(&self, tag: Tag, outgoing: Vec<(usize, Vec<u8>)>) -> CommResult<()> {
        for (dst, payload) in outgoing {
            self.send(dst, tag, payload)?;
        }
        Ok(())
    }

    /// Second half of a split [`exchange`](Self::exchange): collect one
    /// message under `tag` from each rank in `expect_from`, returned as
    /// `(source, payload)` pairs in **arrival order** so the caller can
    /// start unpacking the fastest peer while slower ones are still in
    /// flight. A source listed `k` times yields `k` of its messages.
    fn exchange_finish(
        &self,
        tag: Tag,
        expect_from: &[usize],
    ) -> CommResult<Vec<(usize, Vec<u8>)>> {
        let mut remaining = expect_from.to_vec();
        let mut received = Vec::with_capacity(expect_from.len());
        while !remaining.is_empty() {
            let (src, payload) = self.recv_any_of(tag, &remaining)?;
            let pos = remaining
                .iter()
                .position(|&s| s == src)
                .expect("recv_any_of returns only listed sources");
            remaining.swap_remove(pos);
            received.push((src, payload));
        }
        Ok(received)
    }

    /// Record one overlapped exchange in this rank's [`CommStats`]:
    /// `compute` seconds of useful work done under in-flight messages
    /// and `residual` seconds still blocked afterwards.
    pub fn note_overlap(&self, compute: f64, residual: f64) {
        self.stats.borrow_mut().record_overlap(compute, residual);
    }
}

impl Drop for Communicator {
    /// A rank that unwinds takes the world with it, as an MPI abort
    /// would: its peers hold senders to each other, so without the
    /// marker none of them would ever see a disconnect.
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.abort_world();
        }
    }
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

const T_BARRIER: Tag = Tag::collective(0);
const T_BCAST: Tag = Tag::collective(1);
const T_GATHER: Tag = Tag::collective(2);
const T_REDUCE: Tag = Tag::collective(3);
const T_ALLTOALL: Tag = Tag::collective(5);

impl Communicator {
    /// Dissemination barrier: ⌈log₂ P⌉ rounds, each rank sends one empty
    /// message per round. All ranks must call it.
    pub fn barrier(&self) -> CommResult<()> {
        self.note_sync();
        let p = self.size;
        let mut round = 0u32;
        let mut dist = 1usize;
        while dist < p {
            let dst = (self.rank + dist) % p;
            let src = (self.rank + p - dist % p) % p;
            let tag = Tag(T_BARRIER.0 + round);
            self.send(dst, tag, Vec::new())?;
            self.recv(src, tag)?;
            dist *= 2;
            round += 1;
        }
        Ok(())
    }

    /// Binomial-tree broadcast of a byte payload from `root`.
    pub fn broadcast(&self, root: usize, payload: Option<Vec<u8>>) -> CommResult<Vec<u8>> {
        self.note_sync();
        let p = self.size;
        // Virtual rank with root relabelled to 0.
        let vrank = (self.rank + p - root) % p;
        let data = if self.rank == root {
            payload.ok_or_else(|| CommError::CollectiveMismatch {
                reason: "broadcast root must supply a payload".into(),
            })?
        } else {
            // Receive from virtual parent.
            let mut mask = 1usize;
            while mask < p {
                if vrank & mask != 0 {
                    break;
                }
                mask <<= 1;
            }
            let vparent = vrank & !mask;
            let parent = (vparent + root) % p;
            self.recv(parent, T_BCAST)?
        };
        // Forward to virtual children.
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                break;
            }
            let vchild = vrank | mask;
            if vchild < p {
                let child = (vchild + root) % p;
                self.send(child, T_BCAST, data.clone())?;
            }
            mask <<= 1;
        }
        Ok(data)
    }

    /// Gather each rank's payload at `root`; returns `Some(vec)` indexed
    /// by rank at the root, `None` elsewhere.
    ///
    /// The root receives per source rank (not `recv_any`): `(src, tag)`
    /// matching is FIFO, so back-to-back gathers stay **round-safe** even
    /// though non-root ranks return as soon as their send is buffered — a
    /// fast rank's next-round message can never be consumed as this
    /// round's.
    pub fn gather(&self, root: usize, payload: Vec<u8>) -> CommResult<Option<Vec<Vec<u8>>>> {
        self.note_sync();
        if self.rank == root {
            let mut out: Vec<Option<Vec<u8>>> = vec![None; self.size];
            out[root] = Some(payload);
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = Some(self.recv(src, T_GATHER)?);
                }
            }
            Ok(Some(
                out.into_iter()
                    .map(|o| o.expect("all ranks reported"))
                    .collect(),
            ))
        } else {
            self.send(root, T_GATHER, payload)?;
            Ok(None)
        }
    }

    /// Binomial-tree reduction of `value` with the associative,
    /// commutative combiner `op`; result at `root` only.
    fn reduce_f64_vec<F>(
        &self,
        root: usize,
        mut value: Vec<f64>,
        op: F,
    ) -> CommResult<Option<Vec<f64>>>
    where
        F: Fn(f64, f64) -> f64,
    {
        self.note_sync();
        let p = self.size;
        let vrank = (self.rank + p - root) % p;
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask == 0 {
                let vpeer = vrank | mask;
                if vpeer < p {
                    let peer = (vpeer + root) % p;
                    let theirs = self.recv(peer, T_REDUCE)?;
                    let mut r = WireReader::new(theirs);
                    let other = r.get_f64_vec()?;
                    if other.len() != value.len() {
                        return Err(CommError::CollectiveMismatch {
                            reason: format!(
                                "reduce vector lengths differ: {} vs {}",
                                value.len(),
                                other.len()
                            ),
                        });
                    }
                    for (v, o) in value.iter_mut().zip(other) {
                        *v = op(*v, o);
                    }
                }
            } else {
                let vpeer = vrank & !mask;
                let peer = (vpeer + root) % p;
                let mut w = WireWriter::with_capacity(8 + value.len() * 8);
                w.put_f64_slice(&value);
                self.send(peer, T_REDUCE, w.finish())?;
                return Ok(None);
            }
            mask <<= 1;
        }
        Ok(Some(value))
    }

    /// All-reduce of an `f64` vector (reduce to 0, then broadcast).
    pub fn all_reduce_f64_vec<F>(&self, value: Vec<f64>, op: F) -> CommResult<Vec<f64>>
    where
        F: Fn(f64, f64) -> f64,
    {
        let reduced = self.reduce_f64_vec(0, value, op)?;
        let packed = reduced.map(|v| {
            let mut w = WireWriter::with_capacity(8 + v.len() * 8);
            w.put_f64_slice(&v);
            w.finish()
        });
        let data = self.broadcast(0, packed)?;
        let mut r = WireReader::new(data);
        r.get_f64_vec()
    }

    /// All-reduce of a single `f64`.
    pub fn all_reduce_f64<F>(&self, value: f64, op: F) -> CommResult<f64>
    where
        F: Fn(f64, f64) -> f64,
    {
        Ok(self.all_reduce_f64_vec(vec![value], op)?[0])
    }

    /// All-reduce of a single `u64` (values are representable exactly in
    /// `f64` only up to 2^53, so this uses its own integer path).
    pub fn all_reduce_u64<F>(&self, value: u64, op: F) -> CommResult<u64>
    where
        F: Fn(u64, u64) -> u64,
    {
        self.note_sync();
        // Gather to 0, fold, broadcast — P is modest in-process.
        let gathered = self.gather(0, value.to_bytes())?;
        let result = if let Some(parts) = gathered {
            let mut acc: Option<u64> = None;
            for part in parts {
                let v = u64::from_bytes(part)?;
                acc = Some(match acc {
                    None => v,
                    Some(a) => op(a, v),
                });
            }
            Some(acc.expect("world nonempty").to_bytes())
        } else {
            None
        };
        let data = self.broadcast(0, result)?;
        u64::from_bytes(data)
    }

    /// Personalised all-to-all: `outgoing[r]` goes to rank `r`; returns
    /// the payloads received from each rank, indexed by source rank
    /// (including this rank's own `outgoing[self.rank]`, delivered
    /// locally without touching the network counters).
    pub fn all_to_all(&self, outgoing: Vec<Vec<u8>>) -> CommResult<Vec<Vec<u8>>> {
        if outgoing.len() != self.size {
            return Err(CommError::CollectiveMismatch {
                reason: format!(
                    "all_to_all needs {} payloads, got {}",
                    self.size,
                    outgoing.len()
                ),
            });
        }
        self.note_sync();
        let mut incoming: Vec<Option<Vec<u8>>> = vec![None; self.size];
        for (dst, payload) in outgoing.into_iter().enumerate() {
            if dst == self.rank {
                incoming[dst] = Some(payload);
            } else {
                self.send(dst, T_ALLTOALL, payload)?;
            }
        }
        // Receive per source rank, never `recv_any`: an `all_to_all`
        // completes locally once this rank has its own messages, so a
        // fast peer may already be sending the *next* invocation's
        // payloads. Per-source `(src, tag)` FIFO matching keeps those
        // future messages buffered instead of letting them corrupt (and
        // deadlock) the current round.
        for (src, slot) in incoming.iter_mut().enumerate() {
            if src != self.rank {
                *slot = Some(self.recv(src, T_ALLTOALL)?);
            }
        }
        Ok(incoming
            .into_iter()
            .map(|o| o.expect("all ranks delivered"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_spmd;

    impl Communicator {
        /// Send an encodable value to `dst` under `tag`.
        pub(crate) fn send_wire<T: Wire>(&self, dst: usize, tag: Tag, value: &T) -> CommResult<()> {
            let mut w = crate::wire::WireWriter::new();
            value.encode(&mut w);
            self.send(dst, tag, w.finish())
        }
    }

    fn recv_u64(comm: &Communicator, src: usize, tag: Tag) -> u64 {
        u64::from_bytes(comm.recv(src, tag).unwrap()).unwrap()
    }

    #[test]
    fn p2p_fifo_per_source_and_tag() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..10u64 {
                    comm.send_wire(1, Tag::user(0), &i).unwrap();
                }
                Vec::new()
            } else {
                (0..10)
                    .map(|_| recv_u64(comm, 0, Tag::user(0)))
                    .collect::<Vec<_>>()
            }
        });
        assert_eq!(results[1], (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send_wire(1, Tag::user(1), &111u64).unwrap();
                comm.send_wire(1, Tag::user(2), &222u64).unwrap();
                (0, 0)
            } else {
                // Receive tag 2 first even though tag 1 arrived first.
                let b = recv_u64(comm, 0, Tag::user(2));
                let a = recv_u64(comm, 0, Tag::user(1));
                (a, b)
            }
        });
        assert_eq!(results[1], (111, 222));
    }

    #[test]
    fn barrier_all_sizes() {
        for p in 1..=7 {
            run_spmd(p, |comm| {
                for _ in 0..3 {
                    comm.barrier().unwrap();
                }
            });
        }
    }

    #[test]
    fn broadcast_from_each_root() {
        for p in 1..=6 {
            for root in 0..p {
                let results = run_spmd(p, move |comm| {
                    let v = (comm.rank() == root).then(|| 123_456u64.to_bytes());
                    u64::from_bytes(comm.broadcast(root, v).unwrap()).unwrap()
                });
                assert!(results.iter().all(|&v| v == 123_456));
            }
        }
    }

    #[test]
    fn gather_collects_by_rank() {
        let results = run_spmd(5, |comm| {
            let payload = (comm.rank() as u64 * 10).to_bytes();
            comm.gather(2, payload).unwrap()
        });
        let at_root = results[2].as_ref().unwrap();
        for (r, b) in at_root.iter().enumerate() {
            assert_eq!(u64::from_bytes(b.clone()).unwrap(), r as u64 * 10);
        }
        assert!(results[0].is_none());
    }

    #[test]
    fn reduce_and_allreduce() {
        for p in 1..=8 {
            let results = run_spmd(p, |comm| {
                let x = (comm.rank() + 1) as f64;
                comm.all_reduce_f64(x, |a, b| a + b).unwrap()
            });
            let expect = (p * (p + 1)) as f64 / 2.0;
            for r in results {
                assert!((r - expect).abs() < 1e-12, "p={p}");
            }
        }
    }

    #[test]
    fn allreduce_vec_elementwise_max() {
        let results = run_spmd(3, |comm| {
            let r = comm.rank() as f64;
            comm.all_reduce_f64_vec(vec![r, -r, r * r], f64::max)
                .unwrap()
        });
        for r in &results {
            assert_eq!(*r, vec![2.0, 0.0, 4.0]);
        }
    }

    #[test]
    fn all_to_all_personalised() {
        let results = run_spmd(4, |comm| {
            let out: Vec<Vec<u8>> = (0..4)
                .map(|dst| ((comm.rank() * 100 + dst) as u64).to_bytes())
                .collect();
            comm.all_to_all(out)
                .unwrap()
                .into_iter()
                .map(|b| u64::from_bytes(b).unwrap())
                .collect::<Vec<_>>()
        });
        for (me, r) in results.iter().enumerate() {
            let expect: Vec<u64> = (0..4).map(|src| (src * 100 + me) as u64).collect();
            assert_eq!(*r, expect);
        }
    }

    #[test]
    fn exchange_pairs() {
        let results = run_spmd(4, |comm| {
            let me = comm.rank();
            let peer = me ^ 1;
            let out = vec![(peer, (me as u64).to_bytes())];
            let rcvd = comm.exchange(Tag::halo(0), out, &[peer]).unwrap();
            u64::from_bytes(rcvd[0].clone()).unwrap()
        });
        assert_eq!(results, vec![1, 0, 3, 2]);
    }

    /// A `Delay` fault on the *first* peer in the plan must not hold up
    /// delivery of the other peer's already-sent payload: `exchange_finish`
    /// hands messages over in arrival order, and `exchange` still returns
    /// them in plan order.
    #[test]
    fn exchange_drains_in_arrival_order_under_slow_first_peer() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan};
        use crate::runner::{run_spmd_opts, SpmdOptions};
        use crate::stats::TagClass;

        let plan = FaultPlan::new(vec![FaultEvent {
            rank: 1,
            class: TagClass::Halo,
            step: 0,
            kind: FaultKind::Delay { millis: 150 },
        }]);
        let out = run_spmd_opts(3, SpmdOptions::with_faults(plan), |comm| {
            let me = comm.rank();
            if me == 0 {
                // Rank 1 (delayed) is deliberately FIRST in the plan.
                comm.exchange_start(Tag::halo(0), Vec::new()).unwrap();
                let arrived = comm.exchange_finish(Tag::halo(0), &[1, 2]).unwrap();
                let order: Vec<usize> = arrived.iter().map(|(src, _)| *src).collect();
                assert_eq!(order, vec![2, 1], "fast peer must be drained first");

                // Same topology through the plan-order wrapper: payloads
                // land in `expect_from` slots regardless of arrival.
                let rcvd = comm.exchange(Tag::halo(0), Vec::new(), &[1, 2]).unwrap();
                assert_eq!(u64::from_bytes(rcvd[0].clone()).unwrap(), 100);
                assert_eq!(u64::from_bytes(rcvd[1].clone()).unwrap(), 200);
                comm.stats()
            } else {
                for _round in 0..2 {
                    comm.send_wire(0, Tag::halo(0), &(me as u64 * 100)).unwrap();
                }
                comm.stats()
            }
        });
        // The delayed sender recorded its injected delays (2 sends).
        assert_eq!(out.results[1].faults(crate::stats::FaultStat::Delay), 2);
    }

    /// `recv_any_of` consults the pending buffer first (FIFO within the
    /// match) and only accepts listed sources.
    #[test]
    fn recv_any_of_prefers_buffered_and_filters_sources() {
        run_spmd(3, |comm| {
            if comm.rank() == 0 {
                // Wait until both messages are buffered locally.
                let mut have = 0;
                while have < 2 {
                    comm.drain_inbox();
                    have = comm.pending.borrow().len();
                }
                // Only rank 2 is listed: rank 1's earlier message must
                // stay buffered.
                let (src, payload) = comm.recv_any_of(Tag::user(0), &[2]).unwrap();
                assert_eq!(src, 2);
                assert_eq!(u64::from_bytes(payload).unwrap(), 22);
                let (src, payload) = comm.recv_any_of(Tag::user(0), &[1, 2]).unwrap();
                assert_eq!(src, 1);
                assert_eq!(u64::from_bytes(payload).unwrap(), 11);
            } else {
                let v = comm.rank() as u64 * 11;
                comm.send_wire(0, Tag::user(0), &v).unwrap();
            }
        });
    }

    #[test]
    fn stats_count_sends() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, Tag::halo(0), vec![0u8; 64]).unwrap();
                comm.send(1, Tag::vis(0), vec![0u8; 32]).unwrap();
            } else {
                comm.recv(0, Tag::halo(0)).unwrap();
                comm.recv(0, Tag::vis(0)).unwrap();
            }
            comm.stats()
        });
        use crate::stats::TagClass;
        assert_eq!(results[0].bytes(TagClass::Halo), 64);
        assert_eq!(results[0].bytes(TagClass::Visualisation), 32);
        assert_eq!(results[1].total_bytes(), 0);
    }

    #[test]
    fn invalid_rank_is_an_error() {
        run_spmd(2, |comm| {
            assert!(matches!(
                comm.send(9, Tag::user(0), Vec::new()),
                Err(CommError::InvalidRank { rank: 9, size: 2 })
            ));
            assert!(matches!(
                comm.recv(7, Tag::user(0)),
                Err(CommError::InvalidRank { rank: 7, size: 2 })
            ));
        });
    }

    #[test]
    fn try_recv_returns_none_before_arrival() {
        run_spmd(2, |comm| {
            if comm.rank() == 1 {
                // Probe strictly before rank 0 is allowed to send.
                assert!(comm.try_recv(0, Tag::user(5)).unwrap().is_none());
                comm.send(0, Tag::user(6), Vec::new()).unwrap(); // release
                let mut got = None;
                while got.is_none() {
                    got = comm.try_recv(0, Tag::user(5)).unwrap();
                }
                assert_eq!(u64::from_bytes(got.unwrap()).unwrap(), 9);
            } else {
                comm.recv(1, Tag::user(6)).unwrap(); // wait for the probe
                comm.send_wire(1, Tag::user(5), &9u64).unwrap();
            }
        });
    }

    #[test]
    fn recv_deadline_times_out_then_delivers() {
        use std::time::Duration;
        run_spmd(2, |comm| {
            if comm.rank() == 0 {
                // Nothing has been sent under tag 0 yet: the deadline
                // must expire, every time, until rank 1's tag-7 message
                // has arrived under one of the expiring waits.
                while comm.pending.borrow().is_empty() {
                    let err = comm
                        .recv_deadline(1, Tag::user(0), Duration::from_millis(30))
                        .unwrap_err();
                    assert!(matches!(err, CommError::Timeout { peer: 1, .. }), "{err}");
                }
                // The timed-out wait buffered it for a later receive.
                assert_eq!(recv_u64(comm, 1, Tag::user(7)), 70);
                comm.send(1, Tag::user(1), Vec::new()).unwrap(); // release
                let got = comm
                    .recv_deadline(1, Tag::user(0), Duration::from_secs(10))
                    .unwrap();
                assert_eq!(u64::from_bytes(got).unwrap(), 5);
            } else {
                comm.send_wire(0, Tag::user(7), &70u64).unwrap();
                comm.recv(0, Tag::user(1)).unwrap(); // wait out the timeouts
                comm.send_wire(0, Tag::user(0), &5u64).unwrap();
            }
        });
    }

    /// A message buffered before the call comes back through each of
    /// the four wrappers in FIFO order, and none of them books a wait.
    #[test]
    fn buffered_messages_return_through_every_wrapper_without_a_wait() {
        use crate::stats::TagClass;
        use std::time::Duration;
        run_spmd(1, |comm| {
            let tag = Tag::user(3);
            for v in 6..10u64 {
                comm.send_wire(0, tag, &v).unwrap();
            }
            let got = [
                comm.recv(0, tag).unwrap(),
                // Already buffered: succeeds even with a zero deadline.
                comm.recv_deadline(0, tag, Duration::ZERO).unwrap(),
                comm.recv_any(tag).unwrap().1,
                comm.recv_any_of(tag, &[0]).unwrap().1,
            ]
            .map(|b| u64::from_bytes(b).unwrap());
            assert_eq!(got, [6, 7, 8, 9]);
            assert_eq!(comm.stats().recv_wait_secs(TagClass::User), 0.0);
        });
    }

    /// An injected duplicate is dropped, once, by whichever wrapper's
    /// wait reads it off the channel: the sender's first message goes
    /// out twice, then a second one the receiver asks for first.
    #[test]
    fn duplicates_are_dropped_once_whichever_wrapper_admits_them() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan};
        use crate::runner::{run_spmd_opts, SpmdOptions};
        use crate::stats::TagClass;
        use std::time::Duration;

        for wrapper in 0..4 {
            let plan = FaultPlan::new(vec![FaultEvent {
                rank: 1,
                class: TagClass::User,
                step: 0,
                kind: FaultKind::DuplicateOnce,
            }]);
            let out = run_spmd_opts(2, SpmdOptions::with_faults(plan), |comm| {
                if comm.rank() == 1 {
                    comm.send_wire(0, Tag::user(0), &5u64).unwrap();
                    comm.send_wire(0, Tag::user(1), &6u64).unwrap();
                } else {
                    let tag = Tag::user(1);
                    let second = match wrapper {
                        0 => comm.recv(1, tag).unwrap(),
                        1 => comm.recv_deadline(1, tag, Duration::from_secs(10)).unwrap(),
                        2 => comm.recv_any(tag).unwrap().1,
                        _ => comm.recv_any_of(tag, &[1]).unwrap().1,
                    };
                    assert_eq!(u64::from_bytes(second).unwrap(), 6);
                    assert_eq!(recv_u64(comm, 1, Tag::user(0)), 5);
                    assert!(comm.try_recv(1, Tag::user(0)).unwrap().is_none());
                }
                comm.stats()
            });
            assert_eq!(out.results[0].faults(FaultStat::Dedup), 1, "{wrapper}");
            assert_eq!(out.results[1].faults(FaultStat::Duplicate), 1, "{wrapper}");
        }
    }

    #[test]
    fn self_send_delivers_locally_without_counting() {
        run_spmd(1, |comm| {
            comm.send_wire(0, Tag::user(0), &77u64).unwrap();
            assert_eq!(recv_u64(comm, 0, Tag::user(0)), 77);
            assert_eq!(comm.stats().total_msgs(), 0);
        });
    }
}
