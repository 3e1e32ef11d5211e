//! What the 2-rank workloads share: timed windows that both ranks leave
//! together, and the two message probes of the `parallel` layer.

use crate::machine;
use crate::report::{RunArgs, Window};
use crate::trace::{Track, WINDOW};
use crate::util::timed;
use hemelb_parallel::{
    run_spmd_opts, CommStats, Communicator, SpmdOptions, SpmdOutput, Tag, WireReader, WireWriter,
};
use std::time::Instant;

/// Ranks of every distributed workload: one per core of the box.
pub const RANKS: usize = 2;

const PINGPONG_ROUNDS: usize = 2000;
const BANDWIDTH_ROUNDS: usize = 40;
const BANDWIDTH_F64S: usize = (1 << 20) / 8;

/// Run `f` on [`RANKS`] ranks, rank `r` pinned to the `r`-th CPU of the
/// run: a CPU of its own in a traced run, the one CPU in a gated run.
pub fn on_ranks<T: Send>(f: impl Fn(&Communicator) -> T + Send + Sync) -> SpmdOutput<T> {
    run_spmd_opts(RANKS, SpmdOptions::default(), |comm| {
        machine::pin_to_cpu(comm.rank());
        f(comm)
    })
}

/// Run the timed windows of `args` on this rank. `op` performs one
/// collective op and returns its wall seconds; after every `batch` ops
/// the ranks agree (one all-reduce) whether the window's time is up, so
/// none is left waiting in an op its peers never start. Returns each
/// window with this rank's communication counters over it.
pub fn run_windows(
    comm: &Communicator,
    track: &mut Track,
    args: &RunArgs,
    batch: usize,
    mut op: impl FnMut(&mut Track) -> f64,
) -> Vec<(Window, CommStats)> {
    let mut out = Vec::new();
    for (seconds, traced) in args.windows() {
        comm.set_obs_enabled(traced);
        track.set_enabled(traced);
        comm.barrier().expect("barrier before a window");
        let before = comm.stats();
        let mut window = Window {
            traced,
            ..Window::default()
        };
        track.span(WINDOW, |t| {
            let t0 = Instant::now();
            loop {
                for _ in 0..batch {
                    let secs = op(t);
                    window.push(secs, t0.elapsed().as_secs_f64());
                }
                let up = (window.wall >= seconds) as u64;
                if comm.all_reduce_u64(up, u64::max).expect("window agreement") == 1 {
                    break;
                }
            }
        });
        out.push((window, comm.stats().delta_since(&before)));
    }
    out
}

/// One-way latency samples (µs) of an 8 B message and the one-way rate
/// (MiB/s) of a 1 MiB message between two ranks. A round of the second
/// encodes, sends, receives and decodes the payload both ways, as a
/// halo exchange does; the in-process channel itself moves no bytes.
pub fn message_probes() -> (Vec<f64>, f64) {
    let mut results = on_ranks(|comm| {
        let peer = 1 - comm.rank();
        let tag = Tag::user(1);
        let mut small = Vec::with_capacity(PINGPONG_ROUNDS);
        for _ in 0..PINGPONG_ROUNDS {
            let ((), secs) = timed(|| {
                let mut w = WireWriter::new();
                w.put_u64(7);
                if comm.is_master() {
                    comm.send(peer, tag, w.finish()).expect("probe send");
                    comm.recv(peer, tag).expect("probe recv");
                } else {
                    comm.recv(peer, tag).expect("probe recv");
                    comm.send(peer, tag, w.finish()).expect("probe send");
                }
            });
            small.push(secs * 1e6 / 2.0);
        }
        let data = vec![1.0f64; BANDWIDTH_F64S];
        let ((), secs) = timed(|| {
            for _ in 0..BANDWIDTH_ROUNDS {
                let mut w = WireWriter::with_capacity(data.len() * 8 + 8);
                w.put_f64_slice(&data);
                let recv = |comm: &Communicator| {
                    let payload = comm.recv(peer, tag).expect("probe recv");
                    WireReader::new(payload)
                        .get_f64_vec()
                        .expect("probe decode")
                };
                if comm.is_master() {
                    comm.send(peer, tag, w.finish()).expect("probe send");
                    std::hint::black_box(recv(comm));
                } else {
                    std::hint::black_box(recv(comm));
                    comm.send(peer, tag, w.finish()).expect("probe send");
                }
            }
        });
        let mib_per_s = (2 * BANDWIDTH_ROUNDS) as f64 / secs;
        (small, mib_per_s)
    })
    .results;
    results.swap_remove(0)
}
