//! The lattice state and its per-span kernels: the structure-of-arrays
//! (SoA) fluid-site list every solver in this crate steps.
//!
//! Distributions are kept as **one contiguous `f64` lane per velocity
//! direction** (`f[dir][site]`), one buffer only. Setup walks the sites
//! once in storage order and resolves each link `(s, i)` to the site
//! whose direction-`i` population streams *into* `s` — a local site,
//! the sentinel `LINK_BOUNDARY` for a missing link or `HALO_FLAG |
//! slot` for a cross-rank one — straight into a `StreamPlan`, before
//! the lanes are allocated; no `q × n` table of the links is built. The
//! plan puts every link `(s, i)` in exactly one of four lists:
//!
//! * **copy** — per-direction segments of consecutive local sources;
//! * **wall** — per direction, the non-iolet sites missing that link:
//!   halfway bounce-back takes the opposite post-collision population as
//!   it is, no rule to run;
//! * **iolet** — the missing links of inlet / outlet sites, the only ones
//!   that run a rule: the site's BC, its precomputed velocity and its
//!   pre-collision `(ρ, u)`, all kept in `Iolets` at the iolet sites
//!   alone; the collide stores those moments through a cursor over the
//!   iolet list;
//! * **halo** — `(site, dir, slot)` links fed through the ghost buffer.
//!
//! ## In-place (AA) streaming
//!
//! Steps come in pairs on the one buffer. At an even step count the
//! lanes hold the post-stream state as is (`f[i][s]`). The **local
//! step** collides every site in place and stores its outgoing `f*_i`
//! in lane `ī = opp(i)` of the same site; no site touches another. The
//! odd state this leaves keeps each link's population in the link's
//! **slot**: `(t, ī)` for a copy link with source `t` (that is `t`'s
//! `f*_i`), the site's own `(s, i)` for a wall or iolet link, and ghost
//! slot `slot` for a halo link. The **pull–push step** gathers every
//! link of a site from its slot, collides, and writes the outgoing
//! `f*_ī` back into that same slot, which is where the even state keeps
//! it (`(t, ī)` is `f[ī][t]` of the next even state, since
//! `t − c_ī = s`). Iolet links apply their rule when they are written,
//! in either step, with that collide's `(ρ, u)` and step number, so
//! every state between two steps is complete: a BC changed between the
//! two steps of a pair acts from the next step on, as it would under a
//! pull from a second buffer.
//!
//! Each value is the one the pull scheme moved — same operands, same
//! rule — so the step is bit-identical to it; `tests/golden/parity.txt`
//! pins both parities. A site's **slot set** is its own in the
//! pull–push step: slot `(t, j)` belongs to the site `t − c_j` if that
//! link is local, to `t` if link `(t, j)` is missing, and to no site if
//! `t − c_j` lives on a peer (a *send slot*, see [`crate::dist`]).
//! Disjoint slot sets make the visit order irrelevant, which is what
//! lets the distributed step run a pull–push step as two sweeps, the
//! frontier and the interior, around its halo exchange. A table of the
//! links exists only as `SoaLattice::stream_table`'s expansion of the
//! plan (tests and the corruption hook).
//!
//! Site `s` of a lattice is the `s`-th fluid site handed to it at
//! construction: every fluid site in global order for the serial
//! solver; for the distributed one a rank's owned sites in its storage
//! order — frontier first, interior after (see [`SitePartition`] and
//! [`crate::dist`]) — so a step (`SoaLattice::advance`) only ever
//! sweeps one contiguous site range, on the caller's thread. Snapshots
//! and checkpoints exchange state in the canonical site-major order
//! (`[site][dir]`) over that site list; at an odd step count they
//! gather it from the slots.
//!
//! ## Bitwise reference
//!
//! Every operator collides through one chunked-lane sweep
//! (`collide_span_soa`); the per-site [`collide`](crate::collision::collide)
//! and [`MrtOperator::collide`] are the references the unit tests here
//! compare it against with `to_bits`, site by site. The sweep performs
//! their per-site operation sequence (same operands, same associativity,
//! same visit order within a site) and no operation ever mixes two
//! sites, so a site's bits do not depend on its place in a chunk, on the
//! zero padding of a ragged tail or on the span.
//! The only rewrites are exact IEEE-754 identities:
//!
//! * **Shared front stage** (all operators and the macroscopics): the
//!   `ρ ≠ 0` guard as a select over quotients computed unconditionally;
//!   `u²/2cs²` evaluated once per site instead of once per direction;
//!   for an opposite pair `c_j = −c_i`: `c_j·u ≡ −(c_i·u)` (negation
//!   commutes with products and with round-to-nearest sums, except for
//!   the sign of an exact zero, which the next two absorb),
//!   `(−x)/c ≡ −(x/c)`, `1 + (−t) ≡ 1 − t`, `(−x)² ≡ x²`; for a rest
//!   direction `c·u = ±0` and `1 + (±0) + (+0) ≡ 1`.
//! * **BGK**: nothing further — `f += ω (f_eq − f)` as written.
//! * **TRT**: `τ⁻` and `ω⁻` evaluated once per lattice instead of once
//!   per site (same expression); each pair then runs the scalar
//!   statements verbatim, and a rest direction runs them with `o == i`
//!   (`f⁻ = ½(f − f)`, `e⁻ = ½(e − e)`), so its signed zeros are the
//!   scalar's.
//! * **MRT**: the moment loop in the scalar's fixed order over a chunk
//!   held in stack arrays; `Iterator::sum` folds `f64`s from `−0.0`, so
//!   the explicit accumulator starts there (`−0.0 + x ≡ x` for every
//!   `x`); conserved moments are skipped by the same `rate == 0` test.
//! * **Macroscopics**: the stress sum in direction order with
//!   `(c_a c_b) · f_neq` associated as the scalar's `cx * cy * fi_neq`.
//!
//! Whole-step behaviour is pinned by the digests under `tests/golden/`.

use crate::boundary::IoletBc;
use crate::collision::CollisionKind;
use crate::fields::FieldSnapshot;
use crate::model::LatticeModel;
use crate::mrt::MrtOperator;
use crate::solver::{iolet_rule, SolverConfig};
use crate::CS2;
use hemelb_geometry::lattice::{Stencil, NOT_FLUID};
use hemelb_geometry::{IoLetKind, SiteKind, SparseGeometry};
use std::ops::Range;

/// Sentinel in the streaming table marking a missing (boundary) link:
/// the geometry's own mark of a cell with no fluid site, so a lookup of
/// a link's source gives it as is.
pub(crate) const LINK_BOUNDARY: u32 = NOT_FLUID;

/// Flag bit marking a streaming source that lives in the halo buffer of
/// the distributed solver; the low bits are the halo slot. Check
/// [`LINK_BOUNDARY`] first — the sentinel has this bit set too.
pub(crate) const HALO_FLAG: u32 = 1 << 31;

/// Whether a streaming-table entry names a plain local source site.
fn is_local(entry: u32) -> bool {
    entry & HALO_FLAG == 0
}

/// One contiguous copy segment of the streaming plan: links `i` of the
/// sites `dst..dst+len` come from the consecutive sources
/// `src..src+len`, so their slots are the run `src..src+len` of lane
/// `ī` and a block moves them with one `copy_from_slice`. Raster site
/// numbering makes such segments long: within a column of fluid sites
/// every direction's sources are themselves consecutive.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CopySeg {
    /// First destination site.
    pub dst: u32,
    /// First source site.
    pub src: u32,
    /// Segment length in sites.
    pub len: u32,
}

/// Sites per block of the pull–push sweep: the size of the `q × BLOCK`
/// stack buffer a block's links are gathered into, collided in and
/// written back from.
const BLOCK: usize = 256;

/// The fully resolved streaming schedule: every `(site, dir)` link
/// appears in exactly one of the four lists, so the pull–push step has
/// no per-link dispatch left for anything but the iolet rules.
pub(crate) struct StreamPlan {
    /// Per-direction contiguous-copy segments over all plain-local
    /// links, sorted by destination.
    pub copy: Vec<Vec<CopySeg>>,
    /// Per direction `i`, the ascending non-iolet sites missing link
    /// `i`; the link's slot is the site's own `(s, i)`.
    pub wall: Vec<Vec<u32>>,
    /// `(k, dir)` links of iolet site `k` of [`Iolets`], resolved by its
    /// BC's rule; sorted by site. Slot `(s, i)`, as a wall link.
    pub iolet: Vec<(u32, u32)>,
    /// `(site, dir, slot)` links kept in the ghost buffer, sorted by site.
    pub halo: Vec<(u32, u32, u32)>,
}

impl StreamPlan {
    /// Build the plan of `n` sites in one walk over them in storage
    /// order. `links(s, row)` fills `row[i]` with the source of link
    /// `(s, i)` — a local site, `HALO_FLAG | slot` or [`LINK_BOUNDARY`] —
    /// and is called once per site, ascending. Local sources extend or
    /// open copy segments; missing links go to the iolet list at the
    /// ascending `iolet_sites`, to the wall lists elsewhere; halo links
    /// to the halo list.
    pub(crate) fn build(
        q: usize,
        n: usize,
        iolet_sites: &[u32],
        mut links: impl FnMut(usize, &mut [u32]),
    ) -> Self {
        let mut copy: Vec<Vec<CopySeg>> = vec![Vec::new(); q];
        let mut wall = vec![Vec::new(); q];
        let (mut iolet, mut halo) = (Vec::new(), Vec::new());
        // Each direction's last copy segment, open to extension (`len` 0:
        // none yet).
        let (mut dst, mut src, mut len) = ([0u32; MAX_Q], [0u32; MAX_Q], [0u32; MAX_Q]);
        let mut row = [LINK_BOUNDARY; MAX_Q];
        let mut next_iolet = 0;
        for site in 0..n as u32 {
            let at_iolet = iolet_sites.get(next_iolet) == Some(&site);
            next_iolet += usize::from(at_iolet);
            links(site as usize, &mut row[..q]);
            // Most sites only extend every direction's segment.
            let mut extends = true;
            for i in 0..q {
                extends &= (dst[i] + len[i] == site) & (src[i] + len[i] == row[i]);
            }
            for (i, &e) in row[..q].iter().enumerate() {
                if extends || dst[i] + len[i] == site && src[i] + len[i] == e {
                    len[i] += 1;
                } else if is_local(e) {
                    if len[i] > 0 {
                        copy[i].push(CopySeg {
                            dst: dst[i],
                            src: src[i],
                            len: len[i],
                        });
                    }
                    (dst[i], src[i], len[i]) = (site, e, 1);
                } else if e != LINK_BOUNDARY {
                    halo.push((site, i as u32, e & !HALO_FLAG));
                } else if at_iolet {
                    iolet.push((next_iolet as u32 - 1, i as u32));
                } else {
                    wall[i].push(site);
                }
            }
        }
        for i in 0..q {
            if len[i] > 0 {
                copy[i].push(CopySeg {
                    dst: dst[i],
                    src: src[i],
                    len: len[i],
                });
            }
        }
        StreamPlan {
            copy,
            wall,
            iolet,
            halo,
        }
    }

    /// Expand the plan over `n` sites into the lane-major table of its
    /// links, `table[dir][site]` in the encoding of [`StreamPlan::build`]
    /// (tests and the corruption hook; nothing on the step path). Wall
    /// and iolet links are the sentinel the table starts from.
    fn to_table(&self, n: usize) -> Vec<Vec<u32>> {
        let mut table = vec![vec![LINK_BOUNDARY; n]; self.copy.len()];
        for (lane, segs) in table.iter_mut().zip(&self.copy) {
            for seg in segs {
                let (d, len) = (seg.dst as usize, seg.len as usize);
                for (e, src) in lane[d..d + len].iter_mut().zip(seg.src..) {
                    *e = src;
                }
            }
        }
        for &(s, i, slot) in &self.halo {
            table[i as usize][s as usize] = HALO_FLAG | slot;
        }
        table
    }
}

/// One piece of a plan list inside a block of sites, as
/// [`Cursor::walk`] hands it out: where links `(s, i)` keep their
/// populations between the two steps of a pair.
enum Link {
    /// Links `i` of sites `dst..dst+len`: slots `src..src+len` of lane
    /// `ī`.
    Copy {
        i: usize,
        dst: usize,
        src: usize,
        len: usize,
    },
    /// A wall link: slot `(s, i)`.
    Wall { i: usize, s: usize },
    /// Link `i` of iolet site `k` (local site `s`): slot `(s, i)`.
    Iolet { k: usize, i: usize, s: usize },
    /// A halo link: ghost slot `slot`.
    Halo { i: usize, s: usize, slot: usize },
}

/// Positions in every list of a [`StreamPlan`], for walking it block by
/// block in ascending site order.
#[derive(Clone, Copy)]
struct Cursor {
    copy: [usize; MAX_Q],
    wall: [usize; MAX_Q],
    iolet: usize,
    halo: usize,
}

impl Cursor {
    /// The first entry of each list at or past site `s`.
    fn at(plan: &StreamPlan, iolet_sites: &[u32], s: usize) -> Self {
        let mut cur = Cursor {
            copy: [0; MAX_Q],
            wall: [0; MAX_Q],
            iolet: plan
                .iolet
                .partition_point(|&(k, _)| (iolet_sites[k as usize] as usize) < s),
            halo: plan.halo.partition_point(|&(t, _, _)| (t as usize) < s),
        };
        for (i, segs) in plan.copy.iter().enumerate() {
            cur.copy[i] = segs.partition_point(|seg| (seg.dst + seg.len) as usize <= s);
            cur.wall[i] = plan.wall[i].partition_point(|&t| (t as usize) < s);
        }
        cur
    }

    /// Hand every link of `sites` to `visit` and move past them: copy
    /// segments clipped to the block, one direction after another, then
    /// the iolet and the halo links. `sites` must start where the last
    /// walk ended (or where [`Cursor::at`] began).
    #[inline(always)]
    fn walk(
        &mut self,
        plan: &StreamPlan,
        iolet_sites: &[u32],
        sites: Range<usize>,
        mut visit: impl FnMut(Link),
    ) {
        let (b0, b1) = (sites.start, sites.end);
        for (i, segs) in plan.copy.iter().enumerate() {
            let mut k = self.copy[i];
            while let Some(seg) = segs.get(k) {
                let (d, end) = (seg.dst as usize, (seg.dst + seg.len) as usize);
                if d >= b1 {
                    break;
                }
                let a = d.max(b0);
                visit(Link::Copy {
                    i,
                    dst: a,
                    src: seg.src as usize + (a - d),
                    len: end.min(b1) - a,
                });
                if end > b1 {
                    break;
                }
                k += 1;
            }
            self.copy[i] = k;
            let wall = &plan.wall[i];
            let mut k = self.wall[i];
            while let Some(&s) = wall.get(k) {
                if s as usize >= b1 {
                    break;
                }
                visit(Link::Wall { i, s: s as usize });
                k += 1;
            }
            self.wall[i] = k;
        }
        while let Some(&(k, i)) = plan.iolet.get(self.iolet) {
            let s = iolet_sites[k as usize] as usize;
            if s >= b1 {
                break;
            }
            visit(Link::Iolet {
                k: k as usize,
                i: i as usize,
                s,
            });
            self.iolet += 1;
        }
        while let Some(&(s, i, slot)) = plan.halo.get(self.halo) {
            if s as usize >= b1 {
                break;
            }
            visit(Link::Halo {
                i: i as usize,
                s: s as usize,
                slot: slot as usize,
            });
            self.halo += 1;
        }
    }
}

/// The `q × BLOCK` stack buffer a block of sites is gathered into.
type BlockBuf = [[f64; BLOCK]; MAX_Q];

/// The blocks of `range`: [`BLOCK`]-aligned site ranges, clipped to it.
fn blocks(range: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let first = range.start - range.start % BLOCK;
    (first..range.end)
        .step_by(BLOCK)
        .map(move |b0| b0.max(range.start)..(b0 + BLOCK).min(range.end))
        .filter(|block| !block.is_empty())
}

/// Fill `buf[i][s − sites.start]` with the population of every link
/// `(s, i)` of `sites`, read from its slot in the whole lanes `lanes`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gather<L: AsRef<[f64]>>(
    opp: &[usize],
    plan: &StreamPlan,
    iolet_sites: &[u32],
    cur: &mut Cursor,
    sites: Range<usize>,
    lanes: &[L],
    ghost: &[f64],
    buf: &mut BlockBuf,
) {
    let b0 = sites.start;
    cur.walk(plan, iolet_sites, sites, |link| match link {
        Link::Copy { i, dst, src, len } => {
            let from = &lanes[opp[i]].as_ref()[src..src + len];
            buf[i][dst - b0..dst - b0 + len].copy_from_slice(from);
        }
        Link::Wall { i, s } | Link::Iolet { i, s, .. } => {
            buf[i][s - b0] = lanes[i].as_ref()[s];
        }
        Link::Halo { i, s, slot } => buf[i][s - b0] = ghost[slot],
    });
}

/// The inverse of [`gather`]: write `buf[i][s − sites.start]` into the
/// slot of every link `(s, i)` of `sites`, an iolet link's through
/// `iolet(k, i, value)`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn scatter(
    opp: &[usize],
    plan: &StreamPlan,
    iolet_sites: &[u32],
    cur: &mut Cursor,
    sites: Range<usize>,
    lanes: &mut [&mut [f64]],
    ghost: &mut [f64],
    buf: &BlockBuf,
    iolet: impl Fn(usize, usize, f64) -> f64,
) {
    let b0 = sites.start;
    cur.walk(plan, iolet_sites, sites, |link| match link {
        Link::Copy { i, dst, src, len } => {
            lanes[opp[i]][src..src + len].copy_from_slice(&buf[i][dst - b0..dst - b0 + len]);
        }
        Link::Wall { i, s } => lanes[i][s] = buf[i][s - b0],
        Link::Iolet { k, i, s } => lanes[i][s] = iolet(k, i, buf[i][s - b0]),
        Link::Halo { i, s, slot } => ghost[slot] = buf[i][s - b0],
    });
}

/// The site span `range` of every lane of `f`, as one bundle on the
/// stack: `lanes[..q]` are the spans, the rest are empty.
fn lane_spans(f: &mut [Vec<f64>], range: Range<usize>) -> [&mut [f64]; MAX_Q] {
    let mut lanes = f.iter_mut();
    std::array::from_fn(|_| lanes.next().map_or(&mut [][..], |l| &mut l[range.clone()]))
}

/// The offsets `−c_i` from a site to the sources of its links, as a
/// stencil of `geo`: [`SparseGeometry::offset_sites`] over it gives a
/// site's link sources, [`LINK_BOUNDARY`] where a link is missing.
pub(crate) fn upstream(geo: &SparseGeometry, model: &LatticeModel) -> Stencil {
    geo.stencil(model.c.iter().map(|c| c.map(|v| -v)))
}

/// The per-site state only the iolet rules read, kept at the iolet
/// sites alone: every other site's missing links are wall copies that
/// read nothing but the populations.
pub(crate) struct Iolets {
    /// Local indices of the inlet / outlet sites, ascending.
    pub(crate) sites: Vec<u32>,
    /// Their global ids (where the velocity profiles are evaluated).
    global: Vec<u32>,
    /// Which inlet or outlet each one belongs to.
    kinds: Vec<(IoLetKind, u16)>,
    /// Precomputed BC velocity of each one (zero at pressure iolets).
    velocity: Vec<[f64; 3]>,
    /// Pre-collision moments of the current step, stored by the collide.
    pub(crate) moments: Vec<(f64, [f64; 3])>,
}

impl Iolets {
    /// The iolet sites among `sites` (global ids in local order).
    fn new(geo: &SparseGeometry, cfg: &SolverConfig, sites: impl Iterator<Item = u32>) -> Self {
        let (mut local, mut global, mut kinds) = (Vec::new(), Vec::new(), Vec::new());
        for (l, g) in sites.enumerate() {
            let kind = match geo.kind(g) {
                SiteKind::Inlet(id) => (IoLetKind::Inlet, id),
                SiteKind::Outlet(id) => (IoLetKind::Outlet, id),
                SiteKind::Bulk | SiteKind::Wall => continue,
            };
            local.push(l as u32);
            global.push(g);
            kinds.push(kind);
        }
        let mut iolets = Iolets {
            moments: vec![(1.0, [0.0; 3]); local.len()],
            velocity: Vec::new(),
            sites: local,
            global,
            kinds,
        };
        iolets.refresh_velocities(geo, cfg);
        iolets
    }

    /// Recompute the BC velocities from `cfg` (an id past the disks
    /// takes the last one, as the BC lists do).
    fn refresh_velocities(&mut self, geo: &SparseGeometry, cfg: &SolverConfig) {
        let (inlets, outlets) = (geo.inlets(), geo.outlets());
        let velocity = self
            .global
            .iter()
            .zip(&self.kinds)
            .map(|(&g, &(kind, id))| {
                let disks = match kind {
                    IoLetKind::Inlet => &inlets,
                    IoLetKind::Outlet => &outlets,
                };
                let disk = disks[(id as usize).min(disks.len() - 1)];
                cfg.iolet_bc(kind, id).velocity_at(disk, geo.position_v(g))
            });
        self.velocity = velocity.collect();
    }

    /// The iolet sites of the local range `range`, with their moments,
    /// for a collide to store into, and the rules of step `step` that
    /// read them.
    fn span_mut<'a>(
        &'a mut self,
        range: Range<usize>,
        model: &'a LatticeModel,
        cfg: &'a SolverConfig,
        step: u64,
    ) -> (IoletSpan<'a>, IoletRules<'a>) {
        let a = self.sites.partition_point(|&s| (s as usize) < range.start);
        let b = self.sites.partition_point(|&s| (s as usize) < range.end);
        let span = IoletSpan {
            first: range.start,
            k0: a,
            sites: &self.sites[a..b],
            moments: &mut self.moments[a..b],
        };
        let rules = IoletRules {
            model,
            cfg,
            sites: &self.sites,
            kinds: &self.kinds,
            velocity: &self.velocity,
            step,
        };
        (span, rules)
    }
}

/// The iolet sites of a site span starting at local site `first`, and
/// the slots the collide stores their pre-collision moments in; `k0` is
/// the index of the first of them in [`Iolets`].
pub(crate) struct IoletSpan<'a> {
    pub(crate) first: usize,
    pub(crate) k0: usize,
    pub(crate) sites: &'a [u32],
    pub(crate) moments: &'a mut [(f64, [f64; 3])],
}

impl<'a> IoletSpan<'a> {
    /// Detach the iolet sites of the span's first `len` sites, leaving
    /// the rest (where their local indices end: `partition_point`).
    fn take_front(&mut self, len: usize) -> IoletSpan<'a> {
        let end = self.first + len;
        let k = self.sites.partition_point(|&s| (s as usize) < end);
        let (sites, rest) = self.sites.split_at(k);
        let (moments, rest_moments) = std::mem::take(&mut self.moments).split_at_mut(k);
        let head = IoletSpan {
            first: self.first,
            k0: self.k0,
            sites,
            moments,
        };
        (self.first, self.k0, self.sites, self.moments) = (end, self.k0 + k, rest, rest_moments);
        head
    }

    /// The same span, borrowed again for one collide.
    fn reborrow(&mut self) -> IoletSpan<'_> {
        IoletSpan {
            first: self.first,
            k0: self.k0,
            sites: self.sites,
            moments: self.moments,
        }
    }

    /// The stored moments of iolet site `k` (an index into [`Iolets`]).
    fn moments_of(&self, k: usize) -> (f64, [f64; 3]) {
        self.moments[k - self.k0]
    }
}

/// What the iolet rules of one step read besides a site's moments: the
/// BCs, the iolet sites' kinds and velocities, and the step number.
#[derive(Clone, Copy)]
pub(crate) struct IoletRules<'a> {
    model: &'a LatticeModel,
    cfg: &'a SolverConfig,
    /// Local indices of every iolet site of the lattice.
    sites: &'a [u32],
    kinds: &'a [(IoLetKind, u16)],
    velocity: &'a [[f64; 3]],
    step: u64,
}

impl IoletRules<'_> {
    /// The population of missing link `i` of iolet site `k` whose own
    /// outgoing `f*_ī` is `f_star_opp` and pre-collision moments `rho_u`.
    fn apply(&self, k: usize, i: usize, f_star_opp: f64, rho_u: (f64, [f64; 3])) -> f64 {
        let (kind, id) = self.kinds[k];
        iolet_rule(
            self.model,
            self.cfg.iolet_bc(kind, id),
            self.velocity[k],
            i,
            f_star_opp,
            rho_u,
            self.step,
        )
    }
}

/// The complete lattice state of one solver (or one rank): the one
/// buffer of distribution lanes, the ghost slots of its halo links, the
/// streaming plan, the iolet sites' state, the collision inputs
/// and the step counter, whose parity says how the lanes are to be read
/// (module doc).
pub(crate) struct SoaLattice {
    pub(crate) model: LatticeModel,
    pub(crate) cfg: SolverConfig,
    /// Direction tables of the chunked sweep, built once.
    pub(crate) dirs: DirTables,
    /// `cfg.collision` and `cfg.tau` resolved to relaxation rates.
    pub(crate) relax: Relaxation,
    /// The inlet / outlet sites and everything their rules read.
    pub(crate) iolets: Iolets,
    /// The distributions, `f[dir][site]`.
    pub(crate) f: Vec<Vec<f64>>,
    /// One slot per halo link (empty unless distributed): at an odd step
    /// count the population a peer sent for it, after a pull–push step
    /// the outgoing one to send back.
    pub(crate) ghost: Vec<f64>,
    /// The streaming schedule (copies + wall + iolet + halo).
    pub(crate) plan: StreamPlan,
    /// Completed time steps.
    pub(crate) step: u64,
}

impl SoaLattice {
    /// The rest state (`ρ = 1`, `u = 0`: lane `i` is the constant `w_i`)
    /// on `sites` of `geo` (global ids in storage order), streaming by
    /// the links `links(s, row)` gives for each local site `s` (see
    /// [`StreamPlan::build`]). The plan is built in one walk over the
    /// sites before the lanes are allocated; no table of the links is
    /// ever held.
    ///
    /// # Panics
    /// Panics on relaxation times no operator can run with (see
    /// [`Relaxation::new`]).
    pub(crate) fn new(
        geo: &SparseGeometry,
        sites: impl ExactSizeIterator<Item = u32>,
        cfg: SolverConfig,
        model: LatticeModel,
        links: impl FnMut(usize, &mut [u32]),
    ) -> Self {
        let n = sites.len();
        let iolets = Iolets::new(geo, &cfg, sites);
        let plan = StreamPlan::build(model.q, n, &iolets.sites, links);
        SoaLattice {
            dirs: DirTables::new(&model),
            relax: Relaxation::new(&model, &cfg),
            iolets,
            f: model.w.iter().map(|&w| vec![w; n]).collect(),
            ghost: vec![0.0; plan.halo.len()],
            plan,
            model,
            cfg,
            step: 0,
        }
    }

    /// Number of fluid sites.
    pub(crate) fn site_count(&self) -> usize {
        self.f[0].len()
    }

    /// Fraction of sites whose every link is a plain local source (they
    /// stream by segment copies alone): the sites in no wall, iolet or
    /// halo list.
    pub(crate) fn bulk_fraction(&self) -> f64 {
        let n = self.site_count();
        if n == 0 {
            return 0.0;
        }
        let mut bulk = vec![true; n];
        let iolet = self
            .plan
            .iolet
            .iter()
            .map(|&(k, _)| self.iolets.sites[k as usize]);
        let halo = self.plan.halo.iter().map(|&(s, _, _)| s);
        for s in self
            .plan
            .wall
            .iter()
            .flatten()
            .copied()
            .chain(iolet)
            .chain(halo)
        {
            bulk[s as usize] = false;
        }
        bulk.iter().filter(|&&b| b).count() as f64 / n as f64
    }

    /// The plan's links expanded into a lane-major table.
    pub(crate) fn stream_table(&self) -> Vec<Vec<u32>> {
        self.plan.to_table(self.site_count())
    }

    /// Replace the BC of one inlet or outlet and refresh the precomputed
    /// iolet velocities from `geo` (the construction geometry).
    pub(crate) fn set_iolet_bc(
        &mut self,
        geo: &SparseGeometry,
        kind: IoLetKind,
        id: usize,
        bc: IoletBc,
    ) {
        let bcs = match kind {
            IoLetKind::Inlet => &mut self.cfg.inlet_bcs,
            IoLetKind::Outlet => &mut self.cfg.outlet_bcs,
        };
        if id >= bcs.len() {
            bcs.resize(id + 1, bc);
        }
        bcs[id] = bc;
        self.iolets.refresh_velocities(geo, &self.cfg);
    }

    /// Whether the lanes hold the state between the two steps of a pair
    /// (an odd step count), whose links are read from their slots.
    pub(crate) fn between_pair(&self) -> bool {
        self.step % 2 == 1
    }

    /// One step over the sites of `range`: the local step at an even
    /// step count, the pull–push step at an odd one. Sites outside it
    /// are untouched, and the range cannot change any value. Does not
    /// advance the step counter (see [`SoaLattice::finish_step`]): the
    /// distributed schedule runs a step in two ranges.
    pub(crate) fn advance(&mut self, range: Range<usize>) {
        if self.between_pair() {
            self.pull_push(range);
        } else {
            self.collide(range.clone());
            let (span, rules) = self
                .iolets
                .span_mut(range, &self.model, &self.cfg, self.step);
            apply_iolet_rules(&self.plan, rules, &mut self.f, &span);
        }
    }

    /// Close a step: advance the step counter, which flips the parity
    /// the lanes are read with.
    pub(crate) fn finish_step(&mut self) {
        self.step += 1;
    }

    /// Collide the sites of `range` in place with the AA store (`f*_i`
    /// into lane `ī`), recording the pre-collision moments of its iolet
    /// sites; sites outside it are untouched. The chunked sweep is
    /// offset-invariant, so the range cannot change any site's value.
    fn collide(&mut self, range: Range<usize>) {
        let q = self.model.q;
        let (span, _) = self
            .iolets
            .span_mut(range.clone(), &self.model, &self.cfg, self.step);
        let mut lanes = lane_spans(&mut self.f, range);
        collide_span_soa(&self.model, &self.dirs, &self.relax, &mut lanes[..q], span);
    }

    /// The pull–push step over the sites of `range`, block by block:
    /// gather every link of a block from its slot into a stack buffer,
    /// collide there with the AA store, and write each link's outgoing
    /// population back into the same slot — an iolet link's through its
    /// rule, with the moments this collide stored.
    fn pull_push(&mut self, range: Range<usize>) {
        let (q, n) = (self.model.q, self.site_count());
        let (model, dirs, relax, plan) = (&self.model, &self.dirs, &self.relax, &self.plan);
        let (mut iolets, rules) = self
            .iolets
            .span_mut(range.clone(), model, &self.cfg, self.step);
        let mut lanes = lane_spans(&mut self.f, 0..n);
        let lanes = &mut lanes[..q];
        let mut cur = Cursor::at(plan, rules.sites, range.start);
        let mut buf = [[0.0; BLOCK]; MAX_Q];
        for block in blocks(range) {
            let mut span = iolets.take_front(block.len());
            let mut out = cur;
            gather(
                &model.opp,
                plan,
                rules.sites,
                &mut cur,
                block.clone(),
                lanes,
                &self.ghost,
                &mut buf,
            );
            let mut window = buf.each_mut().map(|lane| &mut lane[..block.len()]);
            collide_span_soa(model, dirs, relax, &mut window[..q], span.reborrow());
            scatter(
                &model.opp,
                plan,
                rules.sites,
                &mut out,
                block,
                lanes,
                &mut self.ghost,
                &buf,
                |k, i, v| rules.apply(k, i, v, span.moments_of(k)),
            );
        }
    }

    /// Macroscopic fields (density, velocity, shear-rate magnitude) of
    /// every site, from the canonical state at either parity.
    pub(crate) fn snapshot(&self) -> FieldSnapshot {
        let n = self.site_count();
        let mut rho = vec![0.0; n];
        let mut u = vec![[0.0; 3]; n];
        let mut shear = vec![0.0; n];
        self.canonical(0..n, |at, lanes| {
            let span = at..at + lanes[0].len();
            macroscopics_span_soa(
                &self.model,
                &self.dirs,
                self.cfg.tau,
                lanes,
                &mut rho[span.clone()],
                &mut u[span.clone()],
                &mut shear[span],
            )
        });
        FieldSnapshot {
            step: self.step,
            rho,
            u,
            shear,
        }
    }

    /// Run `visit(first, lanes)` over `range` with `lanes[i]` the
    /// canonical direction-`i` populations of sites `first..`: the lanes
    /// themselves in one piece at an even step count, else block by
    /// block as gathered from the slots.
    pub(crate) fn canonical(&self, range: Range<usize>, mut visit: impl FnMut(usize, &[&[f64]])) {
        let q = self.model.q;
        if !self.between_pair() {
            let lanes: [&[f64]; MAX_Q] =
                std::array::from_fn(|i| self.f.get(i).map_or(&[][..], |l| &l[range.clone()]));
            visit(range.start, &lanes[..q]);
            return;
        }
        let mut cur = Cursor::at(&self.plan, &self.iolets.sites, range.start);
        let mut buf = [[0.0; BLOCK]; MAX_Q];
        for sites in blocks(range) {
            let (first, len) = (sites.start, sites.len());
            gather(
                &self.model.opp,
                &self.plan,
                &self.iolets.sites,
                &mut cur,
                sites,
                &self.f,
                &self.ghost,
                &mut buf,
            );
            let lanes: [&[f64]; MAX_Q] = std::array::from_fn(|i| &buf[i][..len]);
            visit(first, &lanes[..q]);
        }
    }

    /// The canonical distributions in site-major order (checkpointing,
    /// digests), whatever the step parity.
    pub(crate) fn to_site_major(&self) -> Vec<f64> {
        let q = self.model.q;
        let mut out = vec![0.0; self.site_count() * q];
        self.canonical(0..self.site_count(), |first, lanes| {
            for (i, lane) in lanes.iter().enumerate() {
                for (k, &v) in lane.iter().enumerate() {
                    out[(first + k) * q + i] = v;
                }
            }
        });
        out
    }

    /// Overwrite the dynamical state from a canonical site-major array
    /// and its step counter (checkpoint restore, repartition): at an odd
    /// count every link's value goes to its slot. Send slots are left
    /// alone; the next pull–push step's messages fill them.
    ///
    /// # Panics
    /// Panics if the array length does not match `sites × q`.
    pub(crate) fn install_site_major(&mut self, step: u64, f_site_major: &[f64]) {
        let (q, n) = (self.model.q, self.site_count());
        assert_eq!(f_site_major.len(), n * q);
        self.step = step;
        if !self.between_pair() {
            for (i, lane) in self.f.iter_mut().enumerate() {
                for (s, v) in lane.iter_mut().enumerate() {
                    *v = f_site_major[s * q + i];
                }
            }
            return;
        }
        let SoaLattice {
            model,
            iolets,
            f,
            ghost,
            plan,
            ..
        } = self;
        let mut lanes = lane_spans(f, 0..n);
        let mut cur = Cursor::at(plan, &iolets.sites, 0);
        let mut buf = [[0.0; BLOCK]; MAX_Q];
        for sites in blocks(0..n) {
            for (k, s) in sites.clone().enumerate() {
                for (i, b) in buf[..q].iter_mut().enumerate() {
                    b[k] = f_site_major[s * q + i];
                }
            }
            scatter(
                &model.opp,
                plan,
                &iolets.sites,
                &mut cur,
                sites,
                &mut lanes[..q],
                ghost,
                &buf,
                |_, _, v| v,
            );
        }
    }

    /// Total mass `Σ_s Σ_i f_si` of the canonical state, summed in
    /// site-major order so the value does not depend on the storage
    /// order or the step parity.
    pub(crate) fn mass(&self) -> f64 {
        let mut acc = 0.0;
        self.canonical(0..self.site_count(), |_, lanes| {
            for s in 0..lanes[0].len() {
                for lane in lanes {
                    acc += lane[s];
                }
            }
        });
        acc
    }

    /// Deliberately corrupt the streaming schedule by swapping the
    /// sources of two `(dir, site)` links of its table and rebuilding the
    /// plan from the swapped table. Returns `true` if the two entries
    /// actually differed. Test-only hook for the golden-digest negative
    /// test.
    pub(crate) fn debug_swap_stream_entries(&mut self, dir: usize, a: usize, b: usize) -> bool {
        let mut table = self.stream_table();
        let lane = &mut table[dir];
        if lane[a] == lane[b] {
            return false;
        }
        lane.swap(a, b);
        let (q, n) = (self.model.q, self.site_count());
        self.plan = StreamPlan::build(q, n, &self.iolets.sites, |s, row| {
            for (e, lane) in row.iter_mut().zip(&table) {
                *e = lane[s];
            }
        });
        true
    }
}

/// The frontier/interior split of a rank's site list, fixed at setup for
/// the distributed step schedule.
///
/// **Frontier** sites are the communication surface: their
/// post-collision populations are sent to peers (they appear in the
/// send plan) or they pull at least one population *from* a peer (their
/// streaming row contains a halo link). **Interior** sites are everything
/// else — by construction they read and write no ghost or send slot, so
/// they can step while halo messages are still in flight.
///
/// The distributed solver stores its sites frontier first, so the two
/// classes are the contiguous local index ranges `0..split` and
/// `split..n`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SitePartition {
    n: usize,
    split: usize,
}

impl SitePartition {
    /// `n` local sites of which the first `split` are the frontier.
    pub(crate) fn new(n: usize, split: usize) -> Self {
        assert!(split <= n, "frontier cannot exceed the site list");
        SitePartition { n, split }
    }

    /// Number of local sites covered by the partition.
    pub fn site_count(&self) -> usize {
        self.n
    }

    /// Number of frontier sites: local sites `0..frontier_count()`.
    pub fn frontier_count(&self) -> usize {
        self.split
    }

    /// Number of interior sites: the rest of the local site list.
    pub fn interior_count(&self) -> usize {
        self.n - self.split
    }

    /// Whether local site `s` is on the frontier.
    pub fn is_frontier(&self, s: usize) -> bool {
        debug_assert!(s < self.n);
        s < self.split
    }
}

/// Width of the chunked-lane sweep: small fixed-size arrays the
/// compiler keeps in vector registers.
const CHUNK: usize = 8;

/// Largest velocity set the per-chunk stack arrays hold (D3Q19).
const MAX_Q: usize = 19;

/// `CHUNK` consecutive sites of one lane.
type Window = [f64; CHUNK];

/// The window of `lane` starting at site `s0`.
#[inline(always)]
fn window(lane: &[f64], s0: usize) -> &Window {
    lane[s0..s0 + CHUNK].try_into().expect("chunk window")
}

/// The window of `lane` starting at site `s0`, writable.
#[inline(always)]
fn window_mut(lane: &mut [f64], s0: usize) -> &mut Window {
    (&mut lane[s0..s0 + CHUNK])
        .try_into()
        .expect("chunk window")
}

/// The operator-independent direction tables of the chunked sweep,
/// derived from the velocity set once per lattice.
pub(crate) struct DirTables {
    /// The velocity vectors as `f64`.
    cs: Vec<[f64; 3]>,
    /// Opposite-direction pairs `(i, j)`, `i < j`. They share the two
    /// equilibrium divisions: `c_j = −c_i` gives `cu_j = −cu_i` (IEEE
    /// negation commutes with the dot product, up to the sign of a zero
    /// that `1 + t` then absorbs), so `cu_j / cs² = −(cu_i / cs²)` and
    /// `cu_j² = cu_i²` bit-for-bit — half the fdivs of the naive loop.
    pairs: Vec<(usize, usize)>,
    /// Rest directions (`c = 0`, their own opposite): `cu = ±0`, so the
    /// polynomial collapses to `1 − u²/2cs²` with no division at all.
    rests: Vec<usize>,
}

impl DirTables {
    pub(crate) fn new(model: &LatticeModel) -> Self {
        assert!(model.q <= MAX_Q, "{} exceeds the chunk arrays", model.name);
        let cs = model
            .c
            .iter()
            .map(|c| [c[0] as f64, c[1] as f64, c[2] as f64])
            .collect();
        let mut pairs = Vec::new();
        let mut rests = Vec::new();
        for (i, &j) in model.opp.iter().enumerate() {
            match i.cmp(&j) {
                std::cmp::Ordering::Less => pairs.push((i, j)),
                std::cmp::Ordering::Equal => rests.push(i),
                std::cmp::Ordering::Greater => {}
            }
        }
        DirTables { cs, pairs, rests }
    }
}

/// The collision operator of a lattice with its rates resolved once, so
/// no sweep derives `τ⁻` or `ω` per site and a relaxation time that came
/// in through the `pub` field of [`SolverConfig`] is checked like one
/// that came through `with_tau`.
pub(crate) enum Relaxation {
    /// `f += ω (f_eq − f)`.
    Bgk { omega: f64 },
    /// Even parts relax at `ω⁺ = 1/τ`, odd parts at `ω⁻ = 1/τ⁻`.
    Trt { omega_plus: f64, omega_minus: f64 },
    /// Moment-space relaxation, shear moments at `omega_shear = 1/τ`.
    Mrt { op: MrtOperator, omega_shear: f64 },
}

impl Relaxation {
    /// # Panics
    /// Panics unless `cfg.tau > ½` and, for TRT, `τ⁻ = ½ + Λ/(τ − ½)` is
    /// finite and above ½ as well (at `τ = ½` it is infinite and TRT
    /// would run with `ω⁻ = 0`; below, with NaNs).
    fn new(model: &LatticeModel, cfg: &SolverConfig) -> Self {
        let tau = cfg.tau;
        assert!(tau > 0.5, "tau must exceed 1/2, got {tau}");
        match cfg.collision {
            CollisionKind::Bgk => Relaxation::Bgk { omega: 1.0 / tau },
            CollisionKind::Trt { magic } => {
                let tau_minus = 0.5 + magic / (tau - 0.5);
                assert!(
                    tau_minus.is_finite() && tau_minus > 0.5,
                    "TRT needs a finite tau_minus above 1/2, got {tau_minus} (tau {tau}, magic {magic})"
                );
                Relaxation::Trt {
                    omega_plus: 1.0 / tau,
                    omega_minus: 1.0 / tau_minus,
                }
            }
            CollisionKind::Mrt { omega_ghost } => Relaxation::Mrt {
                op: MrtOperator::new(model, omega_ghost),
                omega_shear: 1.0 / tau,
            },
        }
    }
}

/// What the front stage of the sweep leaves for one chunk of sites:
/// density, velocity and the direction-independent `u²/2cs²` term of the
/// equilibrium.
struct ChunkFront {
    rho: Window,
    u: [Window; 3],
    u2h: Window,
}

impl ChunkFront {
    /// Moments accumulated in direction order, then the guarded
    /// `u = m/ρ`; `lane(i)` is the chunk's window of lane `i`.
    #[inline(always)]
    fn new<'a>(dirs: &DirTables, lane: impl Fn(usize) -> &'a Window) -> Self {
        let mut rho = [0.0f64; CHUNK];
        let mut mx = [0.0f64; CHUNK];
        let mut my = [0.0f64; CHUNK];
        let mut mz = [0.0f64; CHUNK];
        for (i, &[cx, cy, cz]) in dirs.cs.iter().enumerate() {
            let lane = lane(i);
            for l in 0..CHUNK {
                let fi = lane[l];
                rho[l] += fi;
                mx[l] += cx * fi;
                my[l] += cy * fi;
                mz[l] += cz * fi;
            }
        }
        let mut u = [[0.0f64; CHUNK]; 3];
        let mut u2h = [0.0f64; CHUNK];
        for l in 0..CHUNK {
            // Branchless form of the `ρ ≠ 0` guard: compute the
            // quotients unconditionally, keep them only when the guard
            // holds — identical values, and the lane loop vectorises.
            let nz = rho[l] != 0.0;
            let qx = mx[l] / rho[l];
            let qy = my[l] / rho[l];
            let qz = mz[l] / rho[l];
            let (ux, uy, uz) = if nz { (qx, qy, qz) } else { (0.0, 0.0, 0.0) };
            u[0][l] = ux;
            u[1][l] = uy;
            u[2][l] = uz;
            // Hoisted out of the direction loop: same operands, same
            // operation, computed once instead of q times.
            u2h[l] = (ux * ux + uy * uy + uz * uz) / (2.0 * CS2);
        }
        ChunkFront { rho, u, u2h }
    }

    /// The equilibria of the opposite pair `(i, j)` with `c_i = c`.
    #[inline(always)]
    fn pair_equilibria(&self, [cx, cy, cz]: [f64; 3], wi: f64, wj: f64) -> (Window, Window) {
        let mut ei = [0.0f64; CHUNK];
        let mut ej = [0.0f64; CHUNK];
        for l in 0..CHUNK {
            let cu = cx * self.u[0][l] + cy * self.u[1][l] + cz * self.u[2][l];
            let t = cu / CS2;
            let sq = cu * cu / (2.0 * CS2 * CS2);
            ei[l] = wi * self.rho[l] * (1.0 + t + sq - self.u2h[l]);
            ej[l] = wj * self.rho[l] * (1.0 - t + sq - self.u2h[l]);
        }
        (ei, ej)
    }

    /// The equilibrium of a rest direction of weight `w`.
    #[inline(always)]
    fn rest_equilibrium(&self, w: f64) -> Window {
        std::array::from_fn(|l| w * self.rho[l] * (1.0 - self.u2h[l]))
    }

    /// Every direction's equilibrium, for the consumers that visit
    /// directions in index order (MRT's moment sums, the stress tensor).
    #[inline(always)]
    fn equilibria(&self, model: &LatticeModel, dirs: &DirTables) -> [Window; MAX_Q] {
        let mut fe = [[0.0f64; CHUNK]; MAX_Q];
        for &(i, j) in &dirs.pairs {
            (fe[i], fe[j]) = self.pair_equilibria(dirs.cs[i], model.w[i], model.w[j]);
        }
        for &i in &dirs.rests {
            fe[i] = self.rest_equilibrium(model.w[i]);
        }
        fe
    }
}

/// Collide a span of sites in place over per-lane chunks and store each
/// site's outgoing `f*_i` in lane `ī` (the AA store: a local step's
/// whole write, and what a pull–push block writes back through its
/// slots), recording the pre-collision moments of the span's iolet
/// sites in `iolets` (whose `first` is the span's first site). Every
/// operator runs the same sweep — `CHUNK` sites at a time, the shared
/// [`ChunkFront`], then its own relaxation — and a site's result does
/// not depend on where in a chunk or a span it falls.
fn collide_span_soa(
    model: &LatticeModel,
    dirs: &DirTables,
    relax: &Relaxation,
    lanes: &mut [&mut [f64]],
    iolets: IoletSpan<'_>,
) {
    debug_assert_eq!(lanes.len(), model.q);
    match *relax {
        Relaxation::Bgk { omega } => sweep(dirs, lanes, iolets, |front, lanes, s0| {
            relax_pairs(model, dirs, front, lanes, s0, |fi, fj, ei, ej| {
                (fi + omega * (ei - fi), fj + omega * (ej - fj))
            })
        }),
        Relaxation::Trt {
            omega_plus,
            omega_minus,
        } => sweep(dirs, lanes, iolets, |front, lanes, s0| {
            relax_pairs(model, dirs, front, lanes, s0, |fi, fj, ei, ej| {
                let f_p = 0.5 * (fi + fj);
                let f_m = 0.5 * (fi - fj);
                let e_p = 0.5 * (ei + ej);
                let e_m = 0.5 * (ei - ej);
                let d_p = omega_plus * (e_p - f_p);
                let d_m = omega_minus * (e_m - f_m);
                (fi + (d_p + d_m), fj + (d_p - d_m))
            })
        }),
        Relaxation::Mrt {
            ref op,
            omega_shear,
        } => sweep(dirs, lanes, iolets, |front, lanes, s0| {
            let fe = front.equilibria(model, dirs);
            let mut f = [[0.0f64; CHUNK]; MAX_Q];
            for (fi, lane) in f.iter_mut().zip(lanes.iter()) {
                *fi = *window(lane, s0);
            }
            op.relax_lanes(omega_shear, &mut f[..model.q], &fe[..model.q]);
            for (fi, &o) in f.iter().zip(&model.opp) {
                *window_mut(lanes[o], s0) = *fi;
            }
        }),
    }
}

/// The chunk loop of [`collide_span_soa`]. One chunk body — front stage,
/// the operator's `relax(front, lanes, first_site_of_chunk)`, then the
/// front's `(ρ, u)` stored for each iolet site of the chunk through a
/// cursor over `iolets` — runs over every full chunk of the lanes and
/// once more over the ragged tail copied into a zero-padded window
/// (`ρ = 0` on the padding, where the `ρ ≠ 0` guard discards the one
/// non-finite quotient).
#[inline(always)]
fn sweep(
    dirs: &DirTables,
    lanes: &mut [&mut [f64]],
    iolets: IoletSpan<'_>,
    relax: impl Fn(&ChunkFront, &mut [&mut [f64]], usize),
) {
    let IoletSpan {
        first,
        sites,
        moments,
        ..
    } = iolets;
    let mut next = 0;
    // `base` is the chunk's first site within the span.
    let mut chunk = |lanes: &mut [&mut [f64]], s0: usize, base: usize| {
        let front = ChunkFront::new(dirs, |i| window(lanes[i], s0));
        relax(&front, lanes, s0);
        while let Some(&s) = sites.get(next) {
            let l = s as usize - first - base;
            if l >= CHUNK {
                break;
            }
            moments[next] = (front.rho[l], [front.u[0][l], front.u[1][l], front.u[2][l]]);
            next += 1;
        }
    };
    let n = lanes[0].len();
    let full = n - n % CHUNK;
    for s0 in (0..full).step_by(CHUNK) {
        chunk(lanes, s0, s0);
    }
    if full < n {
        let mut pad = [[0.0f64; CHUNK]; MAX_Q];
        for (p, lane) in pad.iter_mut().zip(lanes.iter()) {
            p[..n - full].copy_from_slice(&lane[full..]);
        }
        let mut tail = pad.each_mut().map(|p| &mut p[..]);
        chunk(&mut tail[..lanes.len()], 0, full);
        for (p, lane) in pad.iter().zip(lanes.iter_mut()) {
            lane[full..].copy_from_slice(&p[..n - full]);
        }
    }
    debug_assert_eq!(next, sites.len(), "every iolet site of the span stored");
}

/// Relax a chunk one opposite pair at a time: `pair(f_i, f_j, e_i, e_j)`
/// returns the two post-collision populations of one site, which go to
/// the swapped lanes (`f*_i` to lane `j`). Both lanes of a pair are
/// loaded into local windows before the arithmetic (a fused loop over
/// two `&mut` lane windows does not vectorise). A rest direction is the
/// pair `o == i`, as in the scalar TRT loop, so the signed zeros of its
/// odd part match.
#[inline(always)]
fn relax_pairs(
    model: &LatticeModel,
    dirs: &DirTables,
    front: &ChunkFront,
    lanes: &mut [&mut [f64]],
    s0: usize,
    pair: impl Fn(f64, f64, f64, f64) -> (f64, f64),
) {
    for &(i, j) in &dirs.pairs {
        let fi = *window(lanes[i], s0);
        let fj = *window(lanes[j], s0);
        let (ei, ej) = front.pair_equilibria(dirs.cs[i], model.w[i], model.w[j]);
        let mut oi = [0.0f64; CHUNK];
        let mut oj = [0.0f64; CHUNK];
        for l in 0..CHUNK {
            (oi[l], oj[l]) = pair(fi[l], fj[l], ei[l], ej[l]);
        }
        *window_mut(lanes[j], s0) = oi;
        *window_mut(lanes[i], s0) = oj;
    }
    for &i in &dirs.rests {
        let f = *window(lanes[i], s0);
        let e = front.rest_equilibrium(model.w[i]);
        let mut o = [0.0f64; CHUNK];
        for l in 0..CHUNK {
            o[l] = pair(f[l], f[l], e[l], e[l]).0;
        }
        *window_mut(lanes[i], s0) = o;
    }
}

/// The local step's iolet links of `range`, after its collide: each
/// missing link `(s, i)` of an iolet site holds `f*_ī` and becomes its
/// rule's value.
fn apply_iolet_rules(
    plan: &StreamPlan,
    rules: IoletRules<'_>,
    f: &mut [Vec<f64>],
    iolets: &IoletSpan<'_>,
) {
    let site = |k: u32| iolets.sites[k as usize - iolets.k0] as usize;
    let k0 = plan
        .iolet
        .partition_point(|&(k, _)| (k as usize) < iolets.k0);
    let k1 = plan
        .iolet
        .partition_point(|&(k, _)| (k as usize) < iolets.k0 + iolets.sites.len());
    for &(k, i) in &plan.iolet[k0..k1] {
        let (s, i) = (site(k), i as usize);
        f[i][s] = rules.apply(k as usize, i, f[i][s], iolets.moments_of(k as usize));
    }
}

/// Macroscopic fields of a site span over SoA lanes (`f[i]` holds the
/// span's direction-`i` populations), chunked like the collide (full
/// chunks in place, the ragged tail through a zero-padded copy).
fn macroscopics_span_soa(
    model: &LatticeModel,
    dirs: &DirTables,
    tau: f64,
    f: &[&[f64]],
    rho: &mut [f64],
    u: &mut [[f64; 3]],
    shear: &mut [f64],
) {
    let n = rho.len();
    for s0 in (0..n).step_by(CHUNK) {
        let w = CHUNK.min(n - s0);
        let (rho, u, shear) = (
            &mut rho[s0..s0 + w],
            &mut u[s0..s0 + w],
            &mut shear[s0..s0 + w],
        );
        if w == CHUNK {
            macroscopics_chunk(model, dirs, tau, |i| window(f[i], s0), rho, u, shear);
        } else {
            let mut pad = [[0.0f64; CHUNK]; MAX_Q];
            for (p, lane) in pad.iter_mut().zip(f) {
                p[..w].copy_from_slice(&lane[s0..s0 + w]);
            }
            macroscopics_chunk(model, dirs, tau, |i| &pad[i], rho, u, shear);
        }
    }
}

/// Density, velocity and shear rate of the first `rho.len() ≤ CHUNK`
/// sites of one chunk: the collide's [`ChunkFront`], then the
/// non-equilibrium stress summed in direction order.
#[inline(always)]
fn macroscopics_chunk<'a>(
    model: &LatticeModel,
    dirs: &DirTables,
    tau: f64,
    lane: impl Fn(usize) -> &'a Window,
    rho: &mut [f64],
    u: &mut [[f64; 3]],
    shear: &mut [f64],
) {
    let front = ChunkFront::new(dirs, &lane);
    let fe = front.equilibria(model, dirs);
    let mut pi = [[0.0f64; CHUNK]; 6];
    for (i, &[cx, cy, cz]) in dirs.cs.iter().enumerate() {
        let fi = lane(i);
        let mut neq = [0.0f64; CHUNK];
        for l in 0..CHUNK {
            neq[l] = fi[l] - fe[i][l];
        }
        let coef = [cx * cx, cy * cy, cz * cz, cx * cy, cx * cz, cy * cz];
        for (p, c) in pi.iter_mut().zip(coef) {
            for l in 0..CHUNK {
                p[l] += c * neq[l];
            }
        }
    }
    // `shear_rate_magnitude`'s operations in its order, lane by lane.
    let mut rate = [0.0f64; CHUNK];
    for l in 0..CHUNK {
        let scale = -1.0 / (2.0 * front.rho[l] * CS2 * tau);
        let s = pi.map(|p| p[l] * scale);
        let ss = s[0] * s[0]
            + s[1] * s[1]
            + s[2] * s[2]
            + 2.0 * (s[3] * s[3] + s[4] * s[4] + s[5] * s[5]);
        rate[l] = (2.0 * ss).sqrt();
    }
    for l in 0..rho.len() {
        rho[l] = front.rho[l];
        u[l] = [front.u[0][l], front.u[1][l], front.u[2][l]];
        shear[l] = rate[l];
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::collision::collide;
    use crate::equilibrium::tests::{pi_neq, shear_rate_magnitude};
    use crate::equilibrium::{feq_all, moments as site_moments};
    use crate::solver::ModelKind;
    use hemelb_geometry::{SparseGeometry, VesselBuilder};
    use std::sync::Arc;

    /// The lane-major streaming table for `sites` (global ids), the oracle
    /// the plan builder is tested against: `table[dir][k]` is `resolve(g,
    /// dir)` for the fluid site `g` found at `pos(sites[k]) − c_dir`, or
    /// [`LINK_BOUNDARY`] when there is none. `resolve` is called in `(site,
    /// dir)` order.
    pub(crate) fn build_stream_table(
        geo: &SparseGeometry,
        model: &LatticeModel,
        sites: impl ExactSizeIterator<Item = u32>,
        mut resolve: impl FnMut(u32, usize) -> u32,
    ) -> Vec<Vec<u32>> {
        let mut table = vec![vec![LINK_BOUNDARY; sites.len()]; model.q];
        for (k, g) in sites.enumerate() {
            let [x, y, z] = geo.position(g);
            for (i, c) in model.c.iter().enumerate() {
                let src = geo.site_at(
                    x as i64 - c[0] as i64,
                    y as i64 - c[1] as i64,
                    z as i64 - c[2] as i64,
                );
                if let Some(src) = src {
                    table[i][k] = resolve(src, i);
                }
            }
        }
        table
    }

    fn tube() -> Arc<SparseGeometry> {
        Arc::new(VesselBuilder::straight_tube(12.0, 3.0).voxelise(1.0))
    }

    fn lattice_for(geo: &SparseGeometry, kind: ModelKind) -> SoaLattice {
        let cfg = SolverConfig::pressure_driven(1.0, 1.0).with_model(kind);
        let model = kind.build();
        let back = upstream(geo, &model);
        let sites = 0..geo.fluid_count() as u32;
        SoaLattice::new(geo, sites, cfg, model, |s, row| {
            geo.offset_sites(s as u32, &back, row)
        })
    }

    /// At either parity the canonical state goes in and comes back out
    /// unchanged; at an even count it is the lanes as they are, at an
    /// odd one every value sits in its link's slot.
    #[test]
    fn transpose_round_trips_site_major_at_both_parities() {
        let geo = tube();
        let mut lat = lattice_for(&geo, ModelKind::D3Q15);
        let q = lat.model.q;
        // Distinct per-entry values so transposition bugs cannot cancel.
        let g: Vec<f64> = (0..geo.fluid_count() * q)
            .map(|k| (k as f64).sin())
            .collect();
        lat.install_site_major(6, &g);
        assert_eq!(lat.step, 6);
        assert_eq!(lat.to_site_major(), g);
        assert_eq!(lat.f[1][3], g[3 * q + 1], "even: the lanes as they are");
        lat.install_site_major(7, &g);
        assert_eq!(lat.step, 7);
        assert_eq!(lat.to_site_major(), g);
        let table = lat.stream_table();
        let (s, i) = (0..geo.fluid_count())
            .flat_map(|s| (0..q).map(move |i| (s, i)))
            .find(|&(s, i)| table[i][s] != LINK_BOUNDARY && table[i][s] as usize != s)
            .expect("a local link");
        let t = table[i][s] as usize;
        assert_eq!(lat.f[lat.model.opp[i]][t], g[s * q + i], "odd: slot (t, ī)");
        let sum: f64 = g.iter().sum();
        assert!((lat.mass() - sum).abs() < 1e-9);
    }

    /// Satellite: validate streaming-index construction at **domain
    /// edges per boundary orientation** — for every one of the q link
    /// directions, every site's entry must agree with an independent
    /// geometry query (fluid neighbour upstream ⇒ its index; otherwise
    /// the boundary sentinel). Covers all ±x/±y/±z faces and the
    /// diagonal links of both velocity sets, not just end-to-end digests.
    #[test]
    fn stream_table_matches_geometry_per_orientation() {
        let geo = tube();
        for kind in [ModelKind::D3Q15, ModelKind::D3Q19] {
            let soa = lattice_for(&geo, kind);
            let model = &soa.model;
            let table = soa.stream_table();
            let mut bulk = vec![true; geo.fluid_count()];
            for (i, lane) in table.iter().enumerate() {
                let c = model.c[i];
                let mut boundary_links = 0usize;
                for s in 0..geo.fluid_count() as u32 {
                    let [x, y, z] = geo.position(s);
                    let src = geo.site_at(
                        x as i64 - c[0] as i64,
                        y as i64 - c[1] as i64,
                        z as i64 - c[2] as i64,
                    );
                    let entry = lane[s as usize];
                    bulk[s as usize] &= src.is_some();
                    match src {
                        Some(g) => assert_eq!(
                            entry, g,
                            "dir {i} (c = {c:?}) at site {s}: wrong local source"
                        ),
                        None => {
                            assert_eq!(
                                entry, LINK_BOUNDARY,
                                "dir {i} (c = {c:?}) at site {s}: missing link not marked"
                            );
                            boundary_links += 1;
                        }
                    }
                }
                if c != [0, 0, 0] {
                    assert!(
                        boundary_links > 0,
                        "a closed tube must clip direction {i} (c = {c:?}) somewhere"
                    );
                }
            }
            let bulk = bulk.iter().filter(|&&b| b).count();
            assert!(0 < bulk && bulk < geo.fluid_count(), "a tube has both");
            assert_eq!(soa.bulk_fraction(), bulk as f64 / geo.fluid_count() as f64);
        }
    }

    /// 37 sites (four full chunks and a ragged tail of five) in
    /// site-major order: off-equilibrium states, one site whose
    /// populations cancel to `ρ = 0` with momentum left over (the
    /// guard), one whose populations are all equal (`f⁻`, `e⁻` and the
    /// momentum are signed zeros).
    fn probe_sites(model: &LatticeModel) -> Vec<f64> {
        let (q, n) = (model.q, 37);
        let mut site_major = vec![0.0; n * q];
        for s in 0..n {
            let u = [
                0.03 * ((s % 5) as f64 - 2.0),
                0.02 * ((s % 3) as f64 - 1.0),
                0.01 * ((s % 7) as f64 - 3.0),
            ];
            let site = &mut site_major[s * q..(s + 1) * q];
            feq_all(model, 1.0 + 0.01 * s as f64, u, site);
            site[s % q] += 1e-3; // off-equilibrium
        }
        for i in 0..q {
            let sign = if i < model.opp[i] { 1.0 } else { -1.0 };
            site_major[11 * q + i] = if i == model.opp[i] { 0.0 } else { 0.25 * sign };
            site_major[34 * q + i] = 0.05;
        }
        site_major
    }

    fn to_lanes(model: &LatticeModel, site_major: &[f64]) -> Vec<Vec<f64>> {
        let q = model.q;
        (0..q)
            .map(|i| site_major.iter().skip(i).step_by(q).copied().collect())
            .collect()
    }

    /// The chunked sweep against the per-site reference operators.
    fn assert_chunked_collide_matches_scalar(collision: CollisionKind) {
        let tau = 0.8;
        for model in [LatticeModel::d3q15(), LatticeModel::d3q19()] {
            let q = model.q;
            let site_major = probe_sites(&model);
            let n = site_major.len() / q;

            let mut reference = site_major.clone();
            let mut scratch = vec![0.0; q];
            let mut op = match collision {
                CollisionKind::Mrt { omega_ghost } => Some(MrtOperator::new(&model, omega_ghost)),
                _ => None,
            };
            let moments_ref: Vec<_> = reference
                .chunks_exact_mut(q)
                .map(|site| match op.as_mut() {
                    Some(op) => op.collide(&model, tau, site),
                    None => collide(&model, collision, tau, site, &mut scratch),
                })
                .collect();
            assert_eq!(moments_ref[11], (0.0, [0.0; 3]), "the guarded site");

            let cfg = SolverConfig::pressure_driven(1.0, 1.0)
                .with_tau(tau)
                .with_collision(collision);
            let mut lanes_store = to_lanes(&model, &site_major);
            let mut lanes: Vec<&mut [f64]> =
                lanes_store.iter_mut().map(|l| l.as_mut_slice()).collect();
            // Every site an iolet site: the cursor stores all moments.
            let sites: Vec<u32> = (0..n as u32).collect();
            let mut moments = vec![(0.0, [0.0; 3]); n];
            let all = IoletSpan {
                first: 0,
                k0: 0,
                sites: &sites,
                moments: &mut moments,
            };
            collide_span_soa(
                &model,
                &DirTables::new(&model),
                &Relaxation::new(&model, &cfg),
                &mut lanes,
                all,
            );
            // The AA store: outgoing `f*_i` lands in lane `ī`.
            for s in 0..n {
                for i in 0..q {
                    assert_eq!(
                        lanes_store[model.opp[i]][s].to_bits(),
                        reference[s * q + i].to_bits(),
                        "{} {collision:?} site {s} dir {i}",
                        model.name
                    );
                }
                assert_eq!(moments[s].0.to_bits(), moments_ref[s].0.to_bits());
                for k in 0..3 {
                    assert_eq!(moments[s].1[k].to_bits(), moments_ref[s].1[k].to_bits());
                }
            }
        }
    }

    #[test]
    fn chunked_bgk_is_bit_identical_to_scalar_collide() {
        assert_chunked_collide_matches_scalar(CollisionKind::Bgk);
    }

    #[test]
    fn chunked_trt_is_bit_identical_to_scalar_collide() {
        assert_chunked_collide_matches_scalar(CollisionKind::trt_magic());
    }

    #[test]
    fn chunked_mrt_is_bit_identical_to_scalar_collide() {
        assert_chunked_collide_matches_scalar(CollisionKind::Mrt { omega_ghost: 1.2 });
    }

    #[test]
    fn chunked_macroscopics_are_bit_identical_to_the_scalar_moments() {
        let tau = 0.8;
        for model in [LatticeModel::d3q15(), LatticeModel::d3q19()] {
            let q = model.q;
            let site_major = probe_sites(&model);
            let n = site_major.len() / q;
            let lanes = to_lanes(&model, &site_major);
            // A span that starts off a chunk boundary and ends in a tail.
            let first = 3;
            let (mut rho, mut u, mut shear) = (
                vec![0.0; n - first],
                vec![[0.0; 3]; n - first],
                vec![0.0; n - first],
            );
            let dirs = DirTables::new(&model);
            let span: Vec<&[f64]> = lanes.iter().map(|l| &l[first..]).collect();
            macroscopics_span_soa(&model, &dirs, tau, &span, &mut rho, &mut u, &mut shear);
            for s in first..n {
                let site = &site_major[s * q..(s + 1) * q];
                let (r, v) = site_moments(&model, site);
                let want = shear_rate_magnitude(pi_neq(&model, site, r, v), r, tau);
                let k = s - first;
                assert_eq!(rho[k].to_bits(), r.to_bits(), "{} site {s}", model.name);
                for a in 0..3 {
                    assert_eq!(u[k][a].to_bits(), v[a].to_bits(), "{} site {s}", model.name);
                }
                assert_eq!(
                    shear[k].to_bits(),
                    want.to_bits(),
                    "{} site {s}",
                    model.name
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "tau must exceed 1/2")]
    fn tau_set_through_the_pub_field_is_checked() {
        let geo = tube();
        let cfg = SolverConfig {
            tau: 0.5,
            ..SolverConfig::pressure_driven(1.0, 1.0)
        };
        crate::Solver::new(geo, cfg);
    }

    #[test]
    #[should_panic(expected = "finite tau_minus above 1/2")]
    fn trt_without_a_finite_odd_relaxation_time_is_refused() {
        let geo = tube();
        let cfg = SolverConfig::pressure_driven(1.0, 1.0)
            .with_collision(CollisionKind::Trt { magic: 0.0 });
        crate::Solver::new(geo, cfg);
    }

    /// How often each `(site, dir)` link appears across the plan's four
    /// lists, `[dir][site]`.
    pub(crate) fn link_cover(lat: &SoaLattice) -> Vec<Vec<u32>> {
        let plan = &lat.plan;
        let mut cover = vec![vec![0u32; lat.site_count()]; lat.model.q];
        for (i, segs) in plan.copy.iter().enumerate() {
            for seg in segs {
                for c in &mut cover[i][seg.dst as usize..(seg.dst + seg.len) as usize] {
                    *c += 1;
                }
            }
        }
        for (i, sites) in plan.wall.iter().enumerate() {
            for &s in sites {
                cover[i][s as usize] += 1;
            }
        }
        for &(k, i) in &plan.iolet {
            cover[i as usize][lat.iolets.sites[k as usize] as usize] += 1;
        }
        for &(s, i, _) in &plan.halo {
            cover[i as usize][s as usize] += 1;
        }
        cover
    }

    /// Every link is in exactly one list, the wall list holds no iolet
    /// site and the iolet list nothing else, and every list is sorted
    /// the way [`Cursor::at`]'s `partition_point` needs it.
    pub(crate) fn assert_plan_partitions_the_links(lat: &SoaLattice) {
        let cover = link_cover(lat);
        assert!(
            cover.iter().flatten().all(|&c| c == 1),
            "a link not covered exactly once"
        );
        let plan = &lat.plan;
        let sites = &lat.iolets.sites;
        assert!(sites.windows(2).all(|w| w[0] < w[1]));
        for wall in &plan.wall {
            assert!(wall.windows(2).all(|w| w[0] < w[1]));
            assert!(
                wall.iter().all(|s| sites.binary_search(s).is_err()),
                "iolet site on a wall list"
            );
        }
        assert!(plan.iolet.windows(2).all(|w| w[0] < w[1]));
        assert!(plan
            .halo
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        for segs in &plan.copy {
            assert!(segs.windows(2).all(|w| w[0].dst + w[0].len <= w[1].dst));
        }
    }

    #[test]
    fn plan_expands_to_the_oracle_table() {
        let geo = Arc::new(VesselBuilder::aneurysm(12.0, 2.5, 3.5).voxelise(1.0));
        for kind in [ModelKind::D3Q15, ModelKind::D3Q19] {
            let lat = lattice_for(&geo, kind);
            let sites = 0..geo.fluid_count() as u32;
            let want = build_stream_table(&geo, &lat.model, sites, |src, _| src);
            assert_eq!(lat.stream_table(), want, "{kind:?}");
            assert_plan_partitions_the_links(&lat);
            assert!(!lat.iolets.sites.is_empty() && !lat.plan.iolet.is_empty());
            // Iolet sites keep their missing links off the wall lists.
            for &(k, i) in &lat.plan.iolet {
                let s = lat.iolets.sites[k as usize];
                assert_eq!(want[i as usize][s as usize], LINK_BOUNDARY);
                assert!(matches!(
                    geo.kind(s),
                    SiteKind::Inlet(_) | SiteKind::Outlet(_)
                ));
            }
        }
    }

    /// `bulk_fraction` from the plan equals the table definition (every
    /// link a plain local source) on the aneurysm at two spacings.
    #[test]
    fn bulk_fraction_from_the_plan_matches_the_table() {
        for dx in [1.0, 0.5] {
            let geo = VesselBuilder::aneurysm(12.0, 2.5, 3.5).voxelise(dx);
            let lat = lattice_for(&geo, ModelKind::D3Q15);
            let n = geo.fluid_count();
            let table = build_stream_table(&geo, &lat.model, 0..n as u32, |src, _| src);
            let bulk = (0..n)
                .filter(|&s| table.iter().all(|lane| is_local(lane[s])))
                .count();
            assert!(0 < bulk && bulk < n);
            assert_eq!(lat.bulk_fraction(), bulk as f64 / n as f64, "dx {dx}");
        }
    }

    #[test]
    fn swapping_stream_entries_corrupts_and_rebuilds_the_plan() {
        let geo = tube();
        let mut soa = lattice_for(&geo, ModelKind::D3Q15);
        // Find two sites with different sources in direction 1.
        let before = soa.stream_table();
        let lane = &before[1];
        let b = (1..lane.len())
            .find(|&t| lane[t] != lane[0])
            .expect("tube must have differing sources");
        let (ea, eb) = (lane[0], lane[b]);
        assert!(soa.debug_swap_stream_entries(1, 0, b));
        let after = soa.stream_table();
        assert_eq!((after[1][0], after[1][b]), (eb, ea));
        assert!(!soa.debug_swap_stream_entries(1, 0, 0), "equal entries");
        // The rebuilt plan still covers every link exactly once.
        assert_plan_partitions_the_links(&soa);
    }

    fn bit_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Collide over a sub-range is bit-identical on covered sites to
    /// collide over everything, and leaves uncovered sites untouched —
    /// the invariant the distributed step's frontier/interior sweeps
    /// rely on (the chunked sweep must be offset-invariant: the ranges
    /// below start and end off multiples of the chunk width, under
    /// every operator).
    #[test]
    fn range_collide_matches_full_collide_on_covered_sites() {
        let geo = Arc::new(VesselBuilder::straight_tube(6.0, 2.0).voxelise(1.0));
        for collision in [
            CollisionKind::Bgk,
            CollisionKind::trt_magic(),
            CollisionKind::Mrt { omega_ghost: 1.2 },
        ] {
            let cfg = SolverConfig::pressure_driven(1.0, 1.0)
                .with_tau(0.9)
                .with_collision(collision);
            let mut full = crate::Solver::new(geo.clone(), cfg.clone()).lat;
            let mut part = crate::Solver::new(geo.clone(), cfg).lat;
            let (n, q) = (full.site_count(), full.model.q);
            assert!(n > 23, "need room for the split below");
            let init: Vec<f64> = (0..n * q).map(|k| 0.05 + (k as f64).cos().abs()).collect();
            full.install_site_major(0, &init);
            part.install_site_major(0, &init);

            full.collide(0..n);
            // Cover sites 0..5 and 9..23, leaving the rest untouched.
            let ranges = [0..5, 9..23];
            for range in &ranges {
                part.collide(range.clone());
            }

            let (full_f, part_f) = (full.to_site_major(), part.to_site_major());
            for s in 0..n {
                let covered = ranges.iter().any(|r| r.contains(&s));
                let want = if covered { &full_f } else { &init };
                assert!(
                    bit_eq(&part_f[s * q..(s + 1) * q], &want[s * q..(s + 1) * q]),
                    "{collision:?} site {s}"
                );
            }
            // The covered iolet sites' stored moments agree too.
            let iolets = &full.iolets.sites;
            assert!(!iolets.is_empty());
            for (k, &s) in iolets.iter().enumerate() {
                if ranges.iter().any(|r| r.contains(&(s as usize))) {
                    let (a, b) = (part.iolets.moments[k], full.iolets.moments[k]);
                    assert_eq!(a.0.to_bits(), b.0.to_bits(), "{collision:?} iolet {k}");
                    assert!(bit_eq(&a.1, &b.1), "{collision:?} iolet {k}");
                }
            }
        }
    }

    /// The compact moments the collide stores at the iolet sites equal
    /// the scalar pre-collision moments of those sites, whether one
    /// range covers the lattice or several split its iolet list where
    /// they split the sites.
    #[test]
    fn compact_iolet_moments_match_the_full_moments() {
        let geo = Arc::new(VesselBuilder::straight_tube(10.0, 2.5).voxelise(1.0));
        for kind in [ModelKind::D3Q15, ModelKind::D3Q19] {
            let cfg = SolverConfig::velocity_driven(0.03).with_model(kind);
            let mut base = crate::Solver::new(geo.clone(), cfg).lat;
            let (n, q) = (base.site_count(), base.model.q);
            let init: Vec<f64> = (0..n * q).map(|k| 0.05 + (k as f64).sin().abs()).collect();
            base.install_site_major(0, &init);
            let full: Vec<_> = init
                .chunks_exact(q)
                .map(|site| site_moments(&base.model, site))
                .collect();
            let sites = base.iolets.sites.clone();
            assert!(sites.len() > 3, "inlet and outlet slabs");
            let cut = sites[sites.len() / 2] as usize;
            for cuts in [vec![0, n], vec![0, cut, n], vec![0, cut / 2, cut + 1, n]] {
                let mut lat = crate::Solver::new(geo.clone(), base.cfg.clone()).lat;
                lat.install_site_major(0, &init);
                for w in cuts.windows(2) {
                    lat.collide(w[0]..w[1]);
                }
                for (k, &s) in sites.iter().enumerate() {
                    let (got, want) = (lat.iolets.moments[k], full[s as usize]);
                    assert_eq!(
                        got.0.to_bits(),
                        want.0.to_bits(),
                        "{kind:?} {cuts:?} site {s}"
                    );
                    assert!(bit_eq(&got.1, &want.1), "{kind:?} {cuts:?} site {s}");
                }
            }
        }
    }
}
