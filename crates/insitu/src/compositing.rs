//! Sort-last image compositing: direct-send and binary-swap.
//!
//! After every rank ray-casts its own brick, the partial images are
//! combined by depth. Direct-send ships whole partials to the master;
//! binary-swap exchanges image *halves* over log₂P rounds so the
//! per-rank bandwidth stays O(pixels) instead of O(pixels·P) — the
//! classic scalability fix for exactly the data-movement concern the
//! paper opens with.
//!
//! # Sparse pixel runs
//!
//! A sparse vascular geometry lights only a small fraction of each
//! partial image, so shipping every pixel at 20 B (RGBA + depth) wastes
//! most of the compositing bandwidth on background. Both algorithms
//! therefore encode pixel ranges as *lit runs*: maximal spans of pixels
//! that differ from the background (any colour bit set, or a finite
//! depth). The layout is
//!
//! ```text
//! start:u64  len:u64  nruns:u64
//! (offset_in_range:u64  runlen:u64) × nruns
//! floats:u64-length-prefixed f32 slice   — 5 per lit pixel,
//!                                          r,g,b,a,depth, run order
//! ```
//!
//! versus `16 + 20·len` bytes dense. The encoding is lossless at the
//! bit level: unlit pixels are exactly the `PartialImage` defaults
//! (`+0.0` colour, `+∞` depth), so skipping them reproduces the dense
//! merge bit for bit. Every send records `vis.composite.bytes_wire`
//! (actual payload) and `vis.composite.bytes_dense` (what the dense
//! format would have shipped) as obs counters.

use crate::image::{Image, PartialImage};
use hemelb_parallel::{CommError, CommResult, Communicator, Tag, WireReader, WireWriter};
use std::ops::Range;
use std::time::Duration;

const T_DIRECT: Tag = Tag::composite(0);
const T_SWAP: Tag = Tag::composite(1);
const T_GATHER: Tag = Tag::composite(64);
/// Base tag for [`DeadlineCompositor`] frames. Each frame uses
/// `T_DEADLINE + epoch mod 2^19`, so a payload that misses its frame's
/// deadline can never FIFO-match a later frame's receive.
const T_DEADLINE: Tag = Tag::composite(1024);
const EPOCH_TAGS: u64 = 1 << 19;

/// Wire size of the dense (pre-RLE) encoding of a pixel range: 16 B of
/// header plus 20 B (premultiplied RGBA + depth) per pixel.
pub fn dense_bytes(len: usize) -> usize {
    16 + 20 * len
}

/// Whether a pixel differs from the background a fresh [`PartialImage`]
/// holds (`+0.0` colour, `+∞` depth). Bit-level on purpose: run
/// boundaries must not depend on FP comparison quirks.
#[inline]
fn is_lit(px: &[f32; 4], depth: f32) -> bool {
    px[0].to_bits() != 0
        || px[1].to_bits() != 0
        || px[2].to_bits() != 0
        || px[3].to_bits() != 0
        || depth.to_bits() != f32::INFINITY.to_bits()
}

/// Serialise a pixel range of a partial image as lit runs (see the
/// module docs for the layout). Lossless: [`merge_pixel_runs`] into a
/// fresh image reproduces the range bit for bit.
pub fn encode_pixel_runs(p: &PartialImage, range: Range<usize>) -> Vec<u8> {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let mut lit = 0usize;
    let mut i = range.start;
    while i < range.end {
        if is_lit(&p.image.pixels[i], p.depth[i]) {
            let start = i;
            while i < range.end && is_lit(&p.image.pixels[i], p.depth[i]) {
                i += 1;
            }
            runs.push((start - range.start, i - start));
            lit += i - start;
        } else {
            i += 1;
        }
    }
    let mut w = WireWriter::with_capacity(32 + runs.len() * 16 + lit * 20);
    w.put_usize(range.start);
    w.put_usize(range.len());
    w.put_usize(runs.len());
    let mut floats: Vec<f32> = Vec::with_capacity(lit * 5);
    for &(off, len) in &runs {
        w.put_usize(off);
        w.put_usize(len);
        for i in range.start + off..range.start + off + len {
            let px = p.image.pixels[i];
            floats.extend_from_slice(&[px[0], px[1], px[2], px[3], p.depth[i]]);
        }
    }
    w.put_f32_slice(&floats);
    w.finish()
}

fn decode_err(reason: String) -> CommError {
    CommError::Decode { reason }
}

/// Merge an encoded pixel-run payload into `into` (depth-ordered over).
/// Unlit gaps are untouched — bit-identical to merging them explicitly,
/// because a background pixel is an exact no-op under the depth-ordered
/// over operator.
pub fn merge_pixel_runs(into: &mut PartialImage, payload: Vec<u8>) -> CommResult<Range<usize>> {
    let mut r = WireReader::new(payload);
    let start = r.get_usize()?;
    let len = r.get_usize()?;
    let nruns = r.get_usize()?;
    if start
        .checked_add(len)
        .is_none_or(|end| end > into.image.pixels.len())
    {
        return Err(decode_err(format!(
            "pixel range {start}+{len} exceeds image of {}",
            into.image.pixels.len()
        )));
    }
    if nruns > len {
        return Err(decode_err(format!("{nruns} runs in a range of {len}")));
    }
    let mut runs = Vec::with_capacity(nruns);
    let mut lit = 0usize;
    for _ in 0..nruns {
        let off = r.get_usize()?;
        let rl = r.get_usize()?;
        if off.checked_add(rl).is_none_or(|end| end > len) {
            return Err(decode_err(format!("run {off}+{rl} exceeds range of {len}")));
        }
        runs.push((off, rl));
        lit += rl;
    }
    let mut floats: Vec<f32> = Vec::new();
    r.get_f32_slice(&mut floats)?;
    if floats.len() != lit * 5 {
        return Err(decode_err(format!(
            "{} floats for {lit} lit pixels",
            floats.len()
        )));
    }
    let mut f = 0usize;
    for (off, rl) in runs {
        for i in start + off..start + off + rl {
            let px = [floats[f], floats[f + 1], floats[f + 2], floats[f + 3]];
            let d = floats[f + 4];
            f += 5;
            let (a, da) = (into.image.pixels[i], into.depth[i]);
            let (front, back, dmin) = if da <= d { (a, px, da) } else { (px, a, d) };
            into.image.pixels[i] = crate::image::over_px(front, back);
            into.depth[i] = dmin;
        }
    }
    Ok(start..start + len)
}

/// Record one compositing send's wire bytes against what the dense
/// encoding would have cost.
fn note_wire(comm: &Communicator, range_len: usize, payload: &[u8]) {
    let (dense, wire) = (dense_bytes(range_len) as u64, payload.len() as u64);
    comm.with_obs(|o| {
        o.count("vis.composite.bytes_dense", dense);
        o.count("vis.composite.bytes_wire", wire);
    });
}

/// Direct-send compositing: every rank ships its whole partial to rank
/// 0, which merges them in rank order. O(P·pixels) bytes into one node
/// (before run-length sparsity).
pub fn direct_send(comm: &Communicator, mine: PartialImage) -> CommResult<Option<Image>> {
    comm.note_sync();
    let n = mine.image.pixels.len();
    if comm.is_master() {
        let mut acc = mine;
        // Per-source receives: deterministic merge order, and repeated
        // frames cannot mix (FIFO per `(src, tag)`), unlike `recv_any`.
        for src in 1..comm.size() {
            let payload = comm.recv(src, T_DIRECT)?;
            merge_pixel_runs(&mut acc, payload)?;
        }
        Ok(Some(acc.image))
    } else {
        let payload = encode_pixel_runs(&mine, 0..n);
        note_wire(comm, n, &payload);
        comm.send(0, T_DIRECT, payload)?;
        Ok(None)
    }
}

/// Binary-swap compositing for power-of-two worlds; falls back to
/// [`direct_send`] otherwise (which performs the round's single
/// [`Communicator::note_sync`] — the fallback must not double-count).
/// After log₂P rounds each rank owns a fully composited 1/P of the
/// image, which is then gathered at rank 0.
pub fn binary_swap(comm: &Communicator, mine: PartialImage) -> CommResult<Option<Image>> {
    let p = comm.size();
    if !p.is_power_of_two() || p == 1 {
        return direct_send(comm, mine);
    }
    comm.note_sync();
    let npix = mine.image.pixels.len();
    let me = comm.rank();
    let mut acc = mine;
    let mut range = 0..npix;
    let mut bit = 1usize;
    let mut round = 0u32;
    while bit < p {
        let partner = me ^ bit;
        let half = (range.end - range.start) / 2;
        let (keep, send) = if me & bit == 0 {
            (
                range.start..range.start + half,
                range.start + half..range.end,
            )
        } else {
            (
                range.start + half..range.end,
                range.start..range.start + half,
            )
        };
        let tag = Tag(T_SWAP.0 + round);
        let payload = encode_pixel_runs(&acc, send.clone());
        note_wire(comm, send.len(), &payload);
        comm.send(partner, tag, payload)?;
        let payload = comm.recv(partner, tag)?;
        let merged = merge_pixel_runs(&mut acc, payload)?;
        debug_assert_eq!(merged, keep);
        range = keep;
        bit <<= 1;
        round += 1;
    }
    // Gather the owned slivers at rank 0.
    if comm.is_master() {
        let mut gathered = PartialImage::new(acc.image.width, acc.image.height);
        gathered.image.pixels[range.clone()].copy_from_slice(&acc.image.pixels[range.clone()]);
        gathered.depth[range.clone()].copy_from_slice(&acc.depth[range.clone()]);
        for src in 1..p {
            let payload = comm.recv(src, T_GATHER)?;
            // Slivers are disjoint and `gathered` holds background, so
            // the depth-ordered merge is a plain bit copy of lit runs.
            merge_pixel_runs(&mut gathered, payload)?;
        }
        Ok(Some(gathered.image))
    } else {
        let payload = encode_pixel_runs(&acc, range.clone());
        note_wire(comm, range.len(), &payload);
        comm.send(0, T_GATHER, payload)?;
        Ok(None)
    }
}

/// Result of one [`DeadlineCompositor`] frame.
#[derive(Debug, Default)]
pub struct CompositeOutcome {
    /// The composited image on rank 0; `None` on workers.
    pub image: Option<Image>,
    /// Ranks whose partials missed the deadline this frame (rank 0
    /// only). Empty means the frame is complete.
    pub dropped: Vec<usize>,
}

/// Direct-send compositing with a per-source deadline: a slow or dead
/// worker delays the frame by at most `deadline`, after which its
/// partial is simply left out and the rank is reported in
/// [`CompositeOutcome::dropped`] (and counted as
/// `vis.composite.dropped`). The closed loop uses this so a faulty
/// render rank degrades the picture instead of hanging the pipeline.
///
/// Every frame gets an epoch-unique tag, so a payload that arrives
/// *after* its deadline sits harmlessly in the match buffer instead of
/// corrupting the next frame. The master reaps such late payloads on
/// subsequent frames (counted as `vis.composite.late`).
///
/// All ranks of the world must call [`composite`](Self::composite) the
/// same number of times; the compositor is stateful (the epoch counter
/// is the wire protocol), one instance per rank per loop.
#[derive(Debug, Default)]
pub struct DeadlineCompositor {
    epoch: u64,
    /// `(src, tag)` of payloads that missed their frame, awaiting reap.
    late: Vec<(usize, Tag)>,
}

impl DeadlineCompositor {
    /// A fresh compositor at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Frames composited so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Discard buffered payloads from previously dropped frames that
    /// have since arrived, so the match buffer does not grow without
    /// bound while a slow rank catches up.
    fn reap_late(&mut self, comm: &Communicator) {
        self.late.retain(|&(src, tag)| {
            match comm.try_recv(src, tag) {
                Ok(Some(_)) => {
                    comm.with_obs(|o| o.count("vis.composite.late", 1));
                    false
                }
                // Not arrived yet (or unreachable): keep waiting.
                _ => true,
            }
        });
        // A permanently dead rank never delivers; cap the watch list so
        // it cannot grow one entry per frame forever.
        if self.late.len() > 64 {
            let excess = self.late.len() - 64;
            self.late.drain(..excess);
        }
    }

    /// Composite one frame with a per-source `deadline` (rank 0 blocks
    /// at most `deadline` per missing worker). Workers always send and
    /// never block.
    pub fn composite(
        &mut self,
        comm: &Communicator,
        mine: PartialImage,
        deadline: Duration,
    ) -> CommResult<CompositeOutcome> {
        comm.note_sync();
        let tag = Tag(T_DEADLINE.0 + (self.epoch % EPOCH_TAGS) as u32);
        self.epoch += 1;
        let n = mine.image.pixels.len();
        if !comm.is_master() {
            let payload = encode_pixel_runs(&mine, 0..n);
            note_wire(comm, n, &payload);
            comm.send(0, tag, payload)?;
            return Ok(CompositeOutcome::default());
        }
        self.reap_late(comm);
        let mut acc = mine;
        let mut dropped = Vec::new();
        // Fast pass: merge whatever already arrived without waiting.
        let mut pending = Vec::new();
        for src in 1..comm.size() {
            match comm.try_recv(src, tag)? {
                Some(payload) => {
                    merge_pixel_runs(&mut acc, payload)?;
                }
                None => pending.push(src),
            }
        }
        for src in pending {
            match comm.recv_deadline(src, tag, deadline) {
                Ok(payload) => {
                    merge_pixel_runs(&mut acc, payload)?;
                }
                Err(CommError::Timeout { .. }) => {
                    dropped.push(src);
                    self.late.push((src, tag));
                    comm.with_obs(|o| o.count("vis.composite.dropped", 1));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(CompositeOutcome {
            image: Some(acc.image),
            dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemelb_parallel::{run_spmd, run_spmd_with_stats, TagClass};

    /// A deterministic synthetic partial for rank `r` of `p`: each rank
    /// owns a horizontal band at depth `r`, coloured by rank.
    fn synthetic_partial(r: usize, p: usize, w: u32, h: u32) -> PartialImage {
        let mut out = PartialImage::new(w, h);
        let band = h as usize / p;
        for y in r * band..(r + 1) * band {
            for x in 0..w as usize {
                let i = y * w as usize + x;
                out.image.pixels[i] = [r as f32 / p as f32, 0.5, 0.25, 1.0];
                out.depth[i] = r as f32 + 1.0;
            }
        }
        out
    }

    fn reference(p: usize, w: u32, h: u32) -> Image {
        let mut acc = synthetic_partial(0, p, w, h);
        for r in 1..p {
            acc.merge(&synthetic_partial(r, p, w, h));
        }
        acc.image
    }

    fn partials_bit_eq(a: &PartialImage, b: &PartialImage) -> bool {
        a.image
            .pixels
            .iter()
            .zip(&b.image.pixels)
            .all(|(pa, pb)| (0..4).all(|c| pa[c].to_bits() == pb[c].to_bits()))
            && a.depth
                .iter()
                .zip(&b.depth)
                .all(|(da, db)| da.to_bits() == db.to_bits())
    }

    #[test]
    fn pixel_run_encoding_is_lossless() {
        // A scattered pattern: isolated pixels, multi-pixel runs, a
        // depth-only lit pixel, range boundaries lit.
        let mut p = PartialImage::new(16, 4);
        for &i in &[0usize, 3, 4, 5, 20, 21, 63] {
            p.image.pixels[i] = [0.1 * i as f32, 0.2, 0.3, 0.5];
            p.depth[i] = i as f32;
        }
        p.depth[40] = 7.5; // lit by depth alone
        let payload = encode_pixel_runs(&p, 0..64);
        let mut back = PartialImage::new(16, 4);
        let range = merge_pixel_runs(&mut back, payload).unwrap();
        assert_eq!(range, 0..64);
        assert!(partials_bit_eq(&p, &back));

        // Sub-range encoding only touches that range.
        let payload = encode_pixel_runs(&p, 4..22);
        let mut back = PartialImage::new(16, 4);
        merge_pixel_runs(&mut back, payload).unwrap();
        for i in 0..64 {
            let expect_lit = (4..22).contains(&i) && is_lit(&p.image.pixels[i], p.depth[i]);
            assert_eq!(is_lit(&back.image.pixels[i], back.depth[i]), expect_lit);
        }
    }

    #[test]
    fn pixel_run_edge_cases() {
        // All-transparent: header only, far below dense size.
        let empty = PartialImage::new(8, 8);
        let payload = encode_pixel_runs(&empty, 0..64);
        assert_eq!(payload.len(), 32, "start+len+nruns+empty floats");
        assert!(payload.len() < dense_bytes(64));
        let mut back = PartialImage::new(8, 8);
        merge_pixel_runs(&mut back, payload).unwrap();
        assert!(partials_bit_eq(&empty, &back));

        // All-lit: one run, costs the dense floats plus one run header.
        let mut full = PartialImage::new(8, 8);
        for i in 0..64 {
            full.image.pixels[i] = [0.5, 0.25, 0.125, 1.0];
            full.depth[i] = 2.0;
        }
        let payload = encode_pixel_runs(&full, 0..64);
        assert_eq!(payload.len(), 32 + 16 + 64 * 20);
        let mut back = PartialImage::new(8, 8);
        merge_pixel_runs(&mut back, payload).unwrap();
        assert!(partials_bit_eq(&full, &back));

        // Truncated/corrupt payloads fail cleanly.
        let good = encode_pixel_runs(&full, 0..64);
        let truncated = good[..good.len() - 3].to_vec();
        let mut into = PartialImage::new(8, 8);
        assert!(merge_pixel_runs(&mut into, truncated).is_err());
        let mut small = PartialImage::new(2, 2);
        assert!(merge_pixel_runs(&mut small, good).is_err(), "range bound");
    }

    /// A pixel-run header whose bounds overflow `usize` when added is a
    /// `Decode` error, not an overflow panic or a wrapped bounds check.
    #[test]
    fn overflowing_pixel_run_bounds_are_decode_errors() {
        let header = |start: usize, len: usize, run: Option<(usize, usize)>| {
            let mut w = WireWriter::new();
            w.put_usize(start);
            w.put_usize(len);
            w.put_usize(run.is_some() as usize);
            if let Some((off, rl)) = run {
                w.put_usize(off);
                w.put_usize(rl);
            }
            w.put_f32_slice(&[0.0; 5]);
            w.finish()
        };
        for (what, payload) in [
            ("start = usize::MAX", header(usize::MAX, 1, None)),
            ("off = usize::MAX", header(0, 4, Some((usize::MAX, 1)))),
        ] {
            let mut into = PartialImage::new(2, 2);
            let got = merge_pixel_runs(&mut into, payload);
            assert!(
                matches!(got, Err(CommError::Decode { .. })),
                "{what}: {got:?}"
            );
        }
    }

    #[test]
    fn direct_send_matches_local_merge() {
        for p in [1, 2, 3, 5] {
            let results = run_spmd(p, move |comm| {
                let mine = synthetic_partial(comm.rank(), comm.size(), 16, 20);
                direct_send(comm, mine).unwrap()
            });
            let img = results[0].as_ref().expect("master gets the image");
            assert_eq!(img.pixels, reference(p, 16, 20).pixels, "p={p}");
            for res in results.iter().take(p).skip(1) {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn binary_swap_matches_direct_send() {
        for p in [2usize, 4, 8] {
            let results = run_spmd(p, move |comm| {
                let mine = synthetic_partial(comm.rank(), comm.size(), 16, 16);
                binary_swap(comm, mine).unwrap()
            });
            let img = results[0].as_ref().unwrap();
            assert_eq!(img.pixels, reference(p, 16, 16).pixels, "p={p}");
        }
    }

    #[test]
    fn sparse_compositing_reduces_traffic() {
        // Each rank lights only 1/P of its image, so run-length payloads
        // must undercut the dense format by roughly that factor.
        let p = 8;
        let (w, h) = (64u32, 64u32);
        let direct = run_spmd_with_stats(p, move |comm| {
            let mine = synthetic_partial(comm.rank(), comm.size(), w, h);
            direct_send(comm, mine).unwrap();
        });
        let full_dense = dense_bytes((w * h) as usize) as u64;
        let total = direct.summary.total.bytes(TagClass::Compositing);
        // Every worker still ships its lit band in full…
        let band_floats = ((w * h) as usize / p * 20) as u64;
        assert!(total >= (p as u64 - 1) * band_floats, "{total}");
        // …but far less than the dense all-pixels format.
        assert!(
            total < (p as u64 - 1) * full_dense / 2,
            "sparse {total} should undercut dense {}",
            (p as u64 - 1) * full_dense
        );
    }

    #[test]
    fn binary_swap_bounds_per_rank_traffic() {
        let p = 8;
        let (w, h) = (64u32, 64u32);
        let swap = run_spmd_with_stats(p, move |comm| {
            let mine = synthetic_partial(comm.rank(), comm.size(), w, h);
            binary_swap(comm, mine).unwrap();
        });
        let max_swap = swap
            .stats
            .iter()
            .map(|s| s.bytes(TagClass::Compositing))
            .max()
            .unwrap();
        // Binary swap sends ~pixels·(1 - 1/P) + sliver per rank; even
        // dense that stays within one full image, and run-length
        // encoding only shrinks it.
        let full_dense = dense_bytes((w * h) as usize) as u64;
        assert!(
            max_swap <= full_dense + 64 * 7,
            "swap per-rank send {max_swap} should not exceed one image {full_dense}"
        );
    }

    #[test]
    fn wire_and_dense_counters_track_sends() {
        let p = 4;
        let (w, h) = (32u32, 32u32);
        let out = run_spmd_with_stats(p, move |comm| {
            let mine = synthetic_partial(comm.rank(), comm.size(), w, h);
            binary_swap(comm, mine).unwrap();
        });
        let merged = out.merged_obs();
        let dense = merged.counters["vis.composite.bytes_dense"];
        let wire = merged.counters["vis.composite.bytes_wire"];
        assert!(wire > 0);
        assert!(
            wire < dense,
            "quarter-lit bands must compress: wire {wire} vs dense {dense}"
        );
        // The wire counter is the truth: it matches the comm layer's own
        // compositing byte count.
        assert_eq!(wire, out.summary.total.bytes(TagClass::Compositing));
    }

    #[test]
    fn non_power_of_two_falls_back() {
        let results = run_spmd(3, |comm| {
            let mine = synthetic_partial(comm.rank(), comm.size(), 8, 9);
            binary_swap(comm, mine).unwrap()
        });
        assert_eq!(
            results[0].as_ref().unwrap().pixels,
            reference(3, 8, 9).pixels
        );
    }

    #[test]
    fn deadline_compositor_matches_direct_send_when_all_arrive() {
        for p in [1usize, 3, 4] {
            let results = run_spmd(p, move |comm| {
                let mut dc = DeadlineCompositor::new();
                let mut frames = Vec::new();
                for _ in 0..3 {
                    let mine = synthetic_partial(comm.rank(), comm.size(), 16, 20);
                    let out = dc
                        .composite(comm, mine, std::time::Duration::from_secs(5))
                        .unwrap();
                    assert!(out.dropped.is_empty());
                    frames.push(out.image);
                }
                frames
            });
            for frame in &results[0] {
                assert_eq!(
                    frame.as_ref().unwrap().pixels,
                    reference(p, 16, 20).pixels,
                    "p={p}"
                );
            }
            for worker in results.iter().skip(1) {
                assert!(worker.iter().all(|f| f.is_none()));
            }
        }
    }

    #[test]
    fn deadline_compositor_drops_slow_rank_then_recovers() {
        use std::time::Duration;
        let p = 3usize;
        let out = run_spmd_with_stats(p, move |comm| {
            let mut dc = DeadlineCompositor::new();
            let mk = |r| synthetic_partial(r, p, 16, 18);
            // Frame 0: rank 2 oversleeps its deadline.
            if comm.rank() == 2 {
                std::thread::sleep(Duration::from_millis(300));
            }
            let f0 = dc
                .composite(comm, mk(comm.rank()), Duration::from_millis(40))
                .unwrap();
            if comm.is_master() {
                assert_eq!(f0.dropped, vec![2], "slow rank dropped from frame 0");
                // Frame is degraded, not corrupt: ranks 0 and 1 only.
                let mut partial = mk(0);
                partial.merge(&mk(1));
                assert_eq!(f0.image.unwrap().pixels, partial.image.pixels);
            }
            // Everyone (including the late payload) lands before frame 1.
            comm.barrier().unwrap();
            let f1 = dc
                .composite(comm, mk(comm.rank()), Duration::from_secs(5))
                .unwrap();
            if comm.is_master() {
                assert!(f1.dropped.is_empty());
                assert_eq!(
                    f1.image.unwrap().pixels,
                    reference(p, 16, 18).pixels,
                    "late frame-0 payload must not leak into frame 1"
                );
            }
        });
        let merged = out.merged_obs();
        assert_eq!(merged.counters["vis.composite.dropped"], 1);
        assert_eq!(
            merged.counters["vis.composite.late"], 1,
            "frame 1 reaps rank 2's stale frame-0 payload"
        );
    }

    #[test]
    fn fallback_path_counts_one_sync_per_composite() {
        // Regression guard for the non-power-of-two fallback: exactly
        // one `note_sync` per composite on every rank, whether the call
        // runs binary-swap proper (p = 2, 4) or falls back (p = 3).
        for p in [2usize, 3, 4] {
            let out = run_spmd_with_stats(p, move |comm| {
                let mine = synthetic_partial(comm.rank(), comm.size(), 8, 8);
                binary_swap(comm, mine).unwrap();
            });
            for (rank, st) in out.stats.iter().enumerate() {
                assert_eq!(
                    st.sync_points, 1,
                    "p={p} rank={rank}: composite must sync exactly once"
                );
            }
        }
    }
}
