//! Multilevel k-way graph partitioning — the ParMETIS-family algorithm
//! HemeLB delegates its domain decomposition to.
//!
//! Three phases, as in the METIS literature the paper cites:
//!
//! 1. **Coarsening.** The first step contracts the lattice's 2×2×2
//!    cells: a site joins the cell `(x>>1, y>>1, z>>1)` of its
//!    [`SiteGraph::coords`]. Heavy-edge matching then halves the graph
//!    level by level until it is small;
//! 2. **Initial partitioning** of the coarsest graph by BFS-ordered
//!    weight chunking (a greedy graph-growing variant), grown from 8
//!    seeds spread over its ids; the one with the least overload, then
//!    cut, after refinement is kept;
//! 3. **Uncoarsening** with boundary Fiduccia–Mattheyses (FM)
//!    refinement at every level under the balance bound `(1+ε)·mean`.
//!    On the finest level the bound tightens to the mean plus one
//!    vertex: coarse levels spend ε's slack on the cut, and the finest
//!    evens the loads along it. A part over the bound may pass a vertex
//!    to a full neighbour that stays lighter than it was, so a chain of
//!    moves can reach a part with room.
//!
//! A graph skips the cell level and is matched from the finest level
//! when its coords put more than 8 vertices in one cell, when the cells
//! do not more than halve it (a line of sites, say), or when its
//! halved bounding box would need an index of more than 8 entries a
//! vertex.
//!
//! Bookkeeping: the finest level borrows the [`SiteGraph`] (its edges
//! all weigh 1, so no weight array is built); a coarse vertex's id is
//! given in ascending order of its lowest fine member; a coarse edge
//! weight is a `u32`, the number of fine edges it merges, so every gain
//! is an exact integer.
//!
//! Grouping (cells or mate pairs) and contraction are separate steps.
//! `contract` builds any coarse level in one ordered scatter pass.
//! Coarse vertices are visited in ascending id, and each appends its id
//! to the row of every coarse neighbour, merging a repeat into that
//! row's last entry. Rows come out ascending with no sort, and on a
//! symmetric graph the scattered rows are the rows themselves, so no
//! transpose is needed. Each row has the room its members' out-edges
//! give it (their in-edges, on a symmetric graph); a row that overflows
//! it shows the graph is asymmetric, and coarsening stops at that level
//! rather than index past the row. A graph of more than `u32::MAX`
//! directed edges is not coarsened either, so no slot or weight can
//! wrap. Vertex weights, which need not be integers, are summed from
//! `0.0` over the members in ascending fine index.
//!
//! The refiner keeps, per vertex, its count of neighbours in another
//! part and its edge weight into its own part, exact across moves; after
//! a projection only the members of a coarse boundary vertex are
//! scanned for them. A pass queues every boundary vertex in integer gain
//! buckets under its best move within the bound, moves the best one,
//! locks it and re-keys its neighbours; moves may lose cut. The pass
//! then rolls back to its best prefix: least overload, then most gain,
//! then the most even loads. A level's passes stop at one that no longer
//! evens the loads and wins under 1/1024 of the cut. The map is a
//! function of the graph and `k` alone.

use crate::graph::SiteGraph;
use crate::Partitioner;
use std::borrow::Cow;

/// Weighted CSR graph used internally across coarsening levels.
#[derive(Debug)]
struct Level<'g> {
    xadj: Cow<'g, [usize]>,
    adjncy: Cow<'g, [u32]>,
    /// Edge weights, each the number of fine edges it merges; `None` on
    /// the finest level, where every edge weighs 1.
    adjwgt: Option<Vec<u32>>,
    vwgt: Cow<'g, [f64]>,
    /// Map from this level's vertices to the *next coarser* level.
    coarse_map: Vec<u32>,
}

impl<'g> Level<'g> {
    /// The finest level: the site graph itself, borrowed.
    fn finest(graph: &'g SiteGraph) -> Self {
        Level {
            xadj: Cow::Borrowed(&graph.xadj),
            adjncy: Cow::Borrowed(&graph.adjncy),
            adjwgt: None,
            vwgt: Cow::Borrowed(&graph.vwgt),
            coarse_map: Vec::new(),
        }
    }
    fn len(&self) -> usize {
        self.vwgt.len()
    }
    fn row(&self, v: u32) -> std::ops::Range<usize> {
        self.xadj[v as usize]..self.xadj[v as usize + 1]
    }
    fn neighbours(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let r = self.row(v);
        let w = self.adjwgt.as_deref().map(|w| &w[r.clone()]);
        self.adjncy[r]
            .iter()
            .enumerate()
            .map(move |(i, &u)| (u, w.map_or(1, |w| w[i])))
    }
}

/// Why a level cannot be coarsened; the level is then the coarsest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoarsenError {
    /// More than `u32::MAX` directed edges: a row slot or a coarse edge
    /// weight could wrap.
    TooManyEdges,
    /// A coarse row received more entries than its members have
    /// out-edges, so the graph is not symmetric.
    Asymmetric,
}

/// Deterministic multilevel k-way partitioner.
#[derive(Debug, Clone, Default)]
pub struct MultilevelKWay;

/// Stop coarsening when at most `COARSEN_FACTOR * k` vertices remain.
const COARSEN_FACTOR: usize = 30;
/// Initial partitions tried on the coarsest level.
const INITIAL_TRIES: usize = 8;
/// Maximum FM passes per level.
const REFINE_PASSES: usize = 8;
/// An FM pass stops after this many moves past its best prefix.
const FM_PATIENCE: usize = 64;
/// Allowed load imbalance (`max ≤ (1+ε)·mean`).
const EPSILON: f64 = 0.05;
/// RNG seed for the matching order.
const SEED: u64 = 0x5EED_1234_ABCD;

impl Partitioner for MultilevelKWay {
    fn partition(&self, graph: &SiteGraph, k: usize) -> Vec<usize> {
        assert!(k > 0);
        if k == 1 {
            return vec![0; graph.len()];
        }

        // Phase 1: coarsen.
        let levels = coarsen_levels(graph, k);

        // Phase 2: initial partitions of the coarsest level, grown from
        // seeds spread over its ids; the best after refinement is kept.
        let coarsest = levels.last().expect("nonempty");
        let n = coarsest.len();
        let (mut owner, mut ext) = (0..INITIAL_TRIES.min(n))
            .map(|t| {
                let mut owner = initial_partition(coarsest, k, (t * n / INITIAL_TRIES) as u32);
                let fm = refine(coarsest, &mut owner, k, levels.len() == 1, None);
                (fm.score(), owner, fm.ext)
            })
            .reduce(|best, next| if next.0 < best.0 { next } else { best })
            .map_or_else(Default::default, |(_, owner, ext)| (owner, ext));

        // Phase 3: project back, refining at each level. Only the members
        // of a coarse boundary vertex can be on the boundary.
        for (li, fine) in levels.iter().enumerate().rev().skip(1) {
            owner = fine.coarse_map.iter().map(|&c| owner[c as usize]).collect();
            let boundary = Some((&fine.coarse_map[..], &ext[..]));
            ext = refine(fine, &mut owner, k, li == 0, boundary).ext;
        }
        owner
    }

    fn name(&self) -> &'static str {
        "kway"
    }
}

/// The coarsening hierarchy for `k` parts, finest first, each level but
/// the last holding its map to the next. The first step contracts the
/// lattice's cells where [`cells`] allows it; every other step is
/// heavy-edge matching.
///
/// There is an explicit stall guard. Heavy-edge matching makes no real
/// progress on adversarial topologies — a star graph collapses only one
/// pair per round, an edgeless graph not at all — so a level shrinking by
/// less than 5% is the last. Without the guard such a level could be
/// re-coarsened forever while never approaching the target size. A level
/// [`contract`] refuses is the last too.
fn coarsen_levels(graph: &SiteGraph, k: usize) -> Vec<Level<'_>> {
    let mut levels = vec![Level::finest(graph)];
    let target = (COARSEN_FACTOR * k).max(64);
    let mut rng = SEED | 1;
    loop {
        let last = levels.last().expect("nonempty");
        if last.len() <= target {
            break;
        }
        let step = match (levels.len() == 1).then(|| cells(graph)).flatten() {
            Some((map, nc)) => contract(last, map, nc),
            None => coarsen(last, &mut rng),
        };
        let Ok((coarse, map)) = step else {
            break;
        };
        let stalled = coarse.len() >= last.len() * 95 / 100;
        let reached_target = coarse.len() <= target;
        levels.last_mut().expect("nonempty").coarse_map = map;
        levels.push(coarse);
        if stalled || reached_target {
            break;
        }
    }
    levels
}

/// The 2×2×2-cell grouping of `graph`: each vertex's cell id, cells
/// numbered in ascending order of their first vertex, and the cell
/// count. `None` when a cell would hold more than 8 vertices, when the
/// cells do not more than halve the graph, or when the dense index over
/// the halved bounding box would exceed 8 entries a vertex.
fn cells(graph: &SiteGraph) -> Option<(Vec<u32>, usize)> {
    let n = graph.len();
    let cell = |c: &[f64; 3]| c.map(|x| i128::from(x.floor() as i64 >> 1));
    let mut lo = [i128::MAX; 3];
    let mut hi = [i128::MIN; 3];
    for c in &graph.coords {
        for (a, x) in cell(c).into_iter().enumerate() {
            lo[a] = lo[a].min(x);
            hi[a] = hi[a].max(x);
        }
    }
    let dims = [0, 1, 2].map(|a| hi[a] - lo[a] + 1);
    let boxed = dims.iter().try_fold(1i128, |acc, &d| acc.checked_mul(d))?;
    if n == 0 || graph.coords.len() != n || boxed > 8 * n as i128 {
        return None;
    }
    let mut index = vec![u32::MAX; boxed as usize];
    let mut size: Vec<u8> = Vec::new();
    let mut map = Vec::with_capacity(n);
    for c in &graph.coords {
        let [x, y, z] = cell(c);
        let at = (((x - lo[0]) * dims[1] + y - lo[1]) * dims[2] + z - lo[2]) as usize;
        if index[at] == u32::MAX {
            index[at] = size.len() as u32;
            size.push(0);
        }
        let id = index[at];
        size[id as usize] += 1;
        if size[id as usize] > 8 {
            return None;
        }
        map.push(id);
    }
    (2 * size.len() < n).then_some((map, size.len()))
}

/// xorshift64* step for deterministic tie-breaking.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// One heavy-edge matching step: pairs from [`match_pairs`], contracted.
/// Returns the coarse level and the fine→coarse map.
fn coarsen(fine: &Level<'_>, rng: &mut u64) -> Result<(Level<'static>, Vec<u32>), CoarsenError> {
    let (map, nc) = match_pairs(fine, rng);
    contract(fine, map, nc)
}

/// Heavy-edge matching in a random visit order: each unmatched vertex
/// takes its heaviest unmatched neighbour, the first of equals kept, or
/// itself if none is free. Returns each vertex's pair id, pairs numbered
/// in ascending order of their lower vertex, and the pair count.
fn match_pairs(fine: &Level<'_>, rng: &mut u64) -> (Vec<u32>, usize) {
    let n = fine.len();
    // Random visit order (Fisher–Yates with the deterministic RNG).
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (next_rand(rng) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }

    let unmatched = u32::MAX;
    let mut mate = vec![unmatched; n];
    for &v in &order {
        if mate[v as usize] != unmatched {
            continue;
        }
        let mut best: Option<(u32, u32)> = None;
        for (u, w) in fine.neighbours(v) {
            if u != v && mate[u as usize] == unmatched && best.is_none_or(|(_, bw)| w > bw) {
                best = Some((u, w));
            }
        }
        let u = best.map_or(v, |(u, _)| u);
        mate[v as usize] = u;
        mate[u as usize] = v;
    }

    let mut map = vec![u32::MAX; n];
    let mut nc = 0u32;
    for v in 0..n {
        if map[v] == u32::MAX {
            map[v] = nc;
            map[mate[v] as usize] = nc;
            nc += 1;
        }
    }
    (map, nc as usize)
}

/// The coarse level whose vertex `c` merges the fine vertices `map`
/// sends to `c` (ids `0..nc`, numbered in ascending order of their
/// lowest member). Returns it with `map`.
fn contract(
    fine: &Level<'_>,
    map: Vec<u32>,
    nc: usize,
) -> Result<(Level<'static>, Vec<u32>), CoarsenError> {
    let n = fine.len();
    let edges = u32::try_from(fine.adjncy.len()).map_err(|_| CoarsenError::TooManyEdges)?;
    // Each coarse vertex's members in ascending fine index, from
    // `first[c]` to `first[c + 1]`, and its row's room, from `start[c]`
    // to `start[c + 1]`: the out-edges of its members.
    let mut first = vec![0u32; nc + 1];
    let mut start = vec![0u32; nc + 1];
    for v in 0..n as u32 {
        let c = map[v as usize] as usize;
        first[c + 1] += 1;
        start[c + 1] += fine.row(v).len() as u32;
    }
    for c in 0..nc {
        first[c + 1] += first[c];
        start[c + 1] += start[c];
    }
    let mut members = vec![0u32; n];
    let mut fill = first[..nc].to_vec();
    for v in 0..n as u32 {
        let slot = &mut fill[map[v as usize] as usize];
        members[*slot as usize] = v;
        *slot += 1;
    }

    // Scatter: visit coarse vertices in ascending id and append each one
    // to the rows of its coarse neighbours, so every row comes out
    // ascending. `tail[cu]` is row `cu`'s next free slot and the id last
    // appended to it: a repeat of that id merges into its entry.
    let mut vwgt = Vec::with_capacity(nc);
    let mut adjncy = vec![0u32; edges as usize];
    let mut adjwgt = vec![0u32; edges as usize];
    let mut tail: Vec<[u32; 2]> = start[..nc].iter().map(|&s| [s, u32::MAX]).collect();
    for cv in 0..nc as u32 {
        let mut w_v = 0.0f64;
        for &v in &members[first[cv as usize] as usize..first[cv as usize + 1] as usize] {
            w_v += fine.vwgt[v as usize];
            for (u, w) in fine.neighbours(v) {
                let cu = map[u as usize];
                if cu == cv {
                    continue;
                }
                let [next, last] = &mut tail[cu as usize];
                if *last == cv {
                    adjwgt[*next as usize - 1] += w;
                } else if *next == start[cu as usize + 1] {
                    return Err(CoarsenError::Asymmetric);
                } else {
                    adjncy[*next as usize] = cv;
                    adjwgt[*next as usize] = w;
                    *next += 1;
                    *last = cv;
                }
            }
        }
        vwgt.push(w_v);
    }

    // Compact the rows to exact length, in place: a row never moves right.
    let mut xadj = Vec::with_capacity(nc + 1);
    xadj.push(0);
    for (&s, &[next, _]) in start.iter().zip(&tail) {
        let (s, e, at) = (s as usize, next as usize, *xadj.last().expect("nonempty"));
        adjncy.copy_within(s..e, at);
        adjwgt.copy_within(s..e, at);
        xadj.push(at + e - s);
    }
    let len = *xadj.last().expect("nonempty");
    adjncy.truncate(len);
    adjncy.shrink_to_fit();
    adjwgt.truncate(len);
    adjwgt.shrink_to_fit();
    Ok((
        Level {
            xadj: Cow::Owned(xadj),
            adjncy: Cow::Owned(adjncy),
            adjwgt: Some(adjwgt),
            vwgt: Cow::Owned(vwgt),
            coarse_map: Vec::new(),
        },
        map,
    ))
}

/// Initial partition: BFS order from `seed`, then component by
/// component from vertex 0, chunked by weight. While there are at least
/// as many vertices left as parts, no part is left empty.
fn initial_partition(level: &Level<'_>, k: usize, seed: u32) -> Vec<usize> {
    let n = level.len();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in std::iter::once(seed).chain(0..n as u32) {
        if seen[start as usize] {
            continue;
        }
        let mut queue = std::collections::VecDeque::from([start]);
        seen[start as usize] = true;
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for (u, _) in level.neighbours(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    let total: f64 = level.vwgt.iter().sum();
    let target = total / k as f64;
    let mut owner = vec![0usize; n];
    let mut current = 0usize;
    let mut acc = 0.0;
    for (i, &v) in order.iter().enumerate() {
        owner[v as usize] = current;
        acc += level.vwgt[v as usize];
        let left = n - i - 1;
        if current + 1 < k && (acc >= target * (current as f64 + 1.0) || left < k - current) {
            current += 1;
        }
    }
    owner
}

/// Boundary FM refinement of one level: passes until one no longer
/// evens the loads and wins under 1/1024 of the cut. On the finest level
/// (`finest`) the bound tightens to the mean load plus the heaviest
/// vertex, where that is below `(1+ε)·mean`: the coarse levels spend ε's
/// slack on the cut, and the finest evens the loads along it. `boundary`
/// is as for [`Refiner::new`]. Returns the refiner, whose score ranks
/// initial partitions and whose `ext` shows the next finer level its
/// boundary.
fn refine<'a>(
    level: &'a Level<'_>,
    owner: &mut [usize],
    k: usize,
    finest: bool,
    boundary: Boundary<'_>,
) -> Refiner<'a> {
    let mut refiner = Refiner::new(level, owner, k, EPSILON, finest, boundary);
    for _pass in 0..REFINE_PASSES {
        let cut = refiner.cut;
        let kept = refiner.pass(owner);
        if kept.overload >= 0.0 && kept.loss.unsigned_abs() * 1024 <= cut {
            break;
        }
    }
    refiner
}

/// A projected map's coarse level: this level's map to it and its final
/// `ext` counts. A vertex whose coarse vertex had no foreign neighbour
/// has none either, on a symmetric graph.
type Boundary<'b> = Option<(&'b [u32], &'b [u32])>;

/// `Buckets::at` of a vertex in no bucket.
const UNQUEUED: u32 = u32::MAX;
/// `Buckets::at` of a vertex moved or dropped in this pass.
const LOCKED: u32 = u32::MAX - 1;

/// A max-priority queue of vertices keyed by integer gain: one doubly
/// linked list per gain, newest first.
struct Buckets {
    /// First vertex of each gain's list; gain `g` at `g + offset`.
    head: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Each vertex's bucket, or [`UNQUEUED`] / [`LOCKED`].
    at: Vec<u32>,
    /// No bucket above this one is occupied.
    top: usize,
    offset: i64,
}

impl Buckets {
    /// Room for `n` vertices with gains in `-max_gain..=max_gain`.
    fn new(n: usize, max_gain: i64) -> Self {
        Buckets {
            head: vec![UNQUEUED; 2 * max_gain as usize + 1],
            next: vec![UNQUEUED; n],
            prev: vec![UNQUEUED; n],
            at: vec![UNQUEUED; n],
            top: 0,
            offset: max_gain,
        }
    }
    fn queued(&self, v: u32) -> bool {
        self.at[v as usize] < LOCKED
    }
    fn insert(&mut self, v: u32, gain: i64) {
        let b = (gain + self.offset) as usize;
        let h = self.head[b];
        self.next[v as usize] = h;
        self.prev[v as usize] = UNQUEUED;
        if h != UNQUEUED {
            self.prev[h as usize] = v;
        }
        self.head[b] = v;
        self.at[v as usize] = b as u32;
        self.top = self.top.max(b);
    }
    fn remove(&mut self, v: u32, to: u32) {
        let (p, nx) = (self.prev[v as usize], self.next[v as usize]);
        if p == UNQUEUED {
            self.head[self.at[v as usize] as usize] = nx;
        } else {
            self.next[p as usize] = nx;
        }
        if nx != UNQUEUED {
            self.prev[nx as usize] = p;
        }
        self.at[v as usize] = to;
    }
    /// The newest vertex of the highest occupied gain, unlinked and
    /// locked, with its gain.
    fn pop(&mut self) -> Option<(u32, i64)> {
        loop {
            let v = self.head[self.top];
            if v != UNQUEUED {
                self.remove(v, LOCKED);
                return Some((v, self.top as i64 - self.offset));
            }
            if self.top == 0 {
                return None;
            }
            self.top -= 1;
        }
    }
}

/// How good a prefix of an FM pass is, relative to the pass's start:
/// summed load above the bound, then cut gained, then the change in the
/// sum of squared loads. Smaller is better.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
struct Score {
    overload: f64,
    loss: i64,
    spread: f64,
}

/// One level's refinement state: part loads and, per vertex, `ext` —
/// the number of its adjacency entries owned by another part — and
/// `internal` — its edge weight into its own part — kept exact across
/// moves. (Exact on a symmetric graph; on an asymmetric one a count may
/// lag, and it saturates at 0 rather than wrap.)
struct Refiner<'a> {
    level: &'a Level<'a>,
    loads: Vec<f64>,
    max_load: f64,
    ext: Vec<u32>,
    internal: Vec<u32>,
    /// The summed weight of the cut edges.
    cut: u64,
    queue: Buckets,
    /// Scratch: edge weight from the visited vertex to each part.
    link: Vec<i64>,
    touched: Vec<usize>,
}

impl<'a> Refiner<'a> {
    /// The state of `owner` on `level`. With a `boundary`, only the
    /// vertices it leaves on the boundary scan their neighbours' parts.
    fn new(
        level: &'a Level<'_>,
        owner: &[usize],
        k: usize,
        epsilon: f64,
        finest: bool,
        boundary: Boundary<'_>,
    ) -> Self {
        let n = level.len();
        let total: f64 = level.vwgt.iter().sum();
        let mut loads = vec![0.0f64; k];
        for v in 0..n {
            loads[owner[v]] += level.vwgt[v];
        }
        let mut ext = vec![0u32; n];
        let mut internal = vec![0u32; n];
        let (mut max_gain, mut cut) = (0i64, 0u64);
        for v in 0..n as u32 {
            let o = owner[v as usize];
            let mut degree = 0i64;
            if boundary.is_some_and(|(map, ext)| ext[map[v as usize] as usize] == 0) {
                for (_, w) in level.neighbours(v) {
                    degree += i64::from(w);
                }
                internal[v as usize] = u32::try_from(degree).unwrap_or(u32::MAX);
            } else {
                for (u, w) in level.neighbours(v) {
                    degree += i64::from(w);
                    if owner[u as usize] == o {
                        internal[v as usize] = internal[v as usize].saturating_add(w);
                    } else {
                        ext[v as usize] += 1;
                    }
                }
            }
            max_gain = max_gain.max(degree);
            cut += degree as u64 - u64::from(internal[v as usize]);
        }
        let mean = total / k as f64;
        let mut max_load = mean * (1.0 + epsilon);
        if finest {
            max_load = max_load.min(mean + level.vwgt.iter().fold(0.0, |m: f64, &w| m.max(w)));
        }
        Refiner {
            level,
            loads,
            max_load,
            ext,
            internal,
            cut: cut / 2,
            queue: Buckets::new(n, max_gain),
            link: vec![0; k],
            touched: Vec::with_capacity(8),
        }
    }

    /// The summed load above the bound, and the weight of the cut edges.
    fn score(&self) -> (f64, u64) {
        let overload = self
            .loads
            .iter()
            .map(|&l| (l - self.max_load).max(0.0))
            .sum();
        (overload, self.cut)
    }

    /// `v`'s best move: the adjacent part with room for it that it gains
    /// most by joining, the lighter of equals, with that gain. A part has
    /// room if `v` leaves it within the bound, or if `v`'s own part is
    /// over the bound and the part stays lighter than that one was.
    /// `None` if no part has room, or if the move would empty `v`'s part.
    fn best_move(&mut self, v: u32, owner: &[usize]) -> Option<(usize, i64)> {
        let src = owner[v as usize];
        let w_v = self.level.vwgt[v as usize];
        if self.loads[src] - w_v <= 0.0 {
            return None;
        }
        for (u, w) in self.level.neighbours(v) {
            let ou = owner[u as usize];
            if ou != src {
                if self.link[ou] == 0 {
                    self.touched.push(ou);
                }
                self.link[ou] += i64::from(w);
            }
        }
        let internal = i64::from(self.internal[v as usize]);
        let mut best: Option<(usize, i64)> = None;
        for &dst in &self.touched {
            // Clamped to the bucket range, which an asymmetric graph's
            // lagging `internal` could leave.
            let gain = (self.link[dst] - internal).clamp(-self.queue.offset, self.queue.offset);
            self.link[dst] = 0;
            // A full part may take a vertex from a heavier one over the
            // bound, so a chain of moves can reach a part with room.
            let after = self.loads[dst] + w_v;
            let over = self.loads[src] > self.max_load;
            if after > self.max_load && !(over && after < self.loads[src]) {
                continue;
            }
            if best.is_none_or(|(bd, bg)| {
                gain > bg || (gain == bg && self.loads[dst] < self.loads[bd])
            }) {
                best = Some((dst, gain));
            }
        }
        self.touched.clear();
        best
    }

    /// Move `v` to `dst`, keeping loads, `ext` and `internal` exact.
    /// Returns the change in overload and in the sum of squared loads.
    fn apply(&mut self, v: u32, dst: usize, owner: &mut [usize]) -> (f64, f64) {
        let src = owner[v as usize];
        let w_v = self.level.vwgt[v as usize];
        let over = |l: f64| (l - self.max_load).max(0.0);
        let (ls, ld) = (self.loads[src], self.loads[dst]);
        let d_over = over(ls - w_v) - over(ls) + over(ld + w_v) - over(ld);
        let d_spread = 2.0 * w_v * (ld - ls + w_v);
        owner[v as usize] = dst;
        self.loads[src] -= w_v;
        self.loads[dst] += w_v;
        // `v` left `src` for `dst`: neighbours in `src` gain a foreign
        // neighbour and lose internal weight, those in `dst` the reverse.
        let (mut foreign, mut internal) = (0, 0u32);
        for (u, w) in self.level.neighbours(v) {
            let ou = owner[u as usize];
            let (e, i) = (&mut self.ext[u as usize], &mut self.internal[u as usize]);
            if ou == src {
                *e += 1;
                *i = i.saturating_sub(w);
            } else if ou == dst {
                *e = e.saturating_sub(1);
                *i = i.saturating_add(w);
            }
            if ou == dst {
                internal = internal.saturating_add(w);
            } else {
                foreign += 1;
            }
        }
        self.ext[v as usize] = foreign;
        self.internal[v as usize] = internal;
        (d_over, d_spread)
    }

    /// Re-key `u` after a neighbour moved: queued under its best move if
    /// it is an unlocked boundary vertex with one, out of the queue
    /// otherwise.
    fn requeue(&mut self, u: u32, owner: &[usize]) {
        if self.queue.at[u as usize] == LOCKED {
            return;
        }
        if self.queue.queued(u) {
            self.queue.remove(u, UNQUEUED);
        }
        if self.ext[u as usize] > 0 {
            if let Some((_, gain)) = self.best_move(u, owner) {
                self.queue.insert(u, gain);
            }
        }
    }

    /// One FM pass: move the best queued vertex until the queue empties
    /// or [`FM_PATIENCE`] moves pass without a better prefix, then roll
    /// back to the best prefix. Returns that prefix's score.
    fn pass(&mut self, owner: &mut [usize]) -> Score {
        let level = self.level;
        for v in 0..level.len() as u32 {
            if self.ext[v as usize] > 0 {
                if let Some((_, gain)) = self.best_move(v, owner) {
                    self.queue.insert(v, gain);
                }
            }
        }
        let zero = Score {
            overload: 0.0,
            loss: 0,
            spread: 0.0,
        };
        let (mut now, mut best) = (zero, zero);
        let mut kept = 0usize;
        let mut moves: Vec<(u32, usize)> = Vec::new();
        let mut locked: Vec<u32> = Vec::new();
        while let Some((v, key)) = self.queue.pop() {
            locked.push(v);
            // Loads moved since `v` was keyed: a part may be full now.
            let Some((dst, gain)) = self.best_move(v, owner) else {
                continue;
            };
            if gain < key {
                self.queue.at[v as usize] = UNQUEUED;
                locked.pop();
                self.queue.insert(v, gain);
                continue;
            }
            moves.push((v, owner[v as usize]));
            let (d_over, d_spread) = self.apply(v, dst, owner);
            now.overload += d_over;
            now.loss -= gain;
            now.spread += d_spread;
            if now < best {
                best = now;
                kept = moves.len();
            } else if moves.len() - kept >= FM_PATIENCE {
                break;
            }
            for (u, _) in level.neighbours(v) {
                self.requeue(u, owner);
            }
        }
        // Roll back past the best prefix, newest first.
        for &(v, src) in moves[kept..].iter().rev() {
            self.apply(v, src, owner);
        }
        // Empty the queue for the next pass.
        while let Some((v, _)) = self.queue.pop() {
            locked.push(v);
        }
        for v in locked {
            self.queue.at[v as usize] = UNQUEUED;
        }
        self.queue.top = 0;
        self.cut = self.cut.saturating_add_signed(best.loss);
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Connectivity;
    use crate::metrics::quality;
    use crate::SiteGraph;
    use hemelb_geometry::VesselBuilder;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn demo_graph() -> SiteGraph {
        let geo = VesselBuilder::aneurysm(28.0, 4.0, 6.0).voxelise(1.0);
        SiteGraph::from_geometry(&geo, Connectivity::D3Q15)
    }

    #[test]
    fn kway_respects_balance_constraint() {
        let g = demo_graph();
        for k in [2, 4, 8] {
            let owner = MultilevelKWay.partition(&g, k);
            let q = quality(&g, &owner, k);
            assert!(
                q.imbalance <= 1.0 + 0.05 + 1e-9,
                "k={k} imbalance {}",
                q.imbalance
            );
        }
    }

    #[test]
    fn kway_is_deterministic() {
        let g = demo_graph();
        let a = MultilevelKWay.partition(&g, 4);
        let b = MultilevelKWay.partition(&g, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn kway_beats_random_assignment_on_cut() {
        let g = demo_graph();
        let k = 4;
        let owner = MultilevelKWay.partition(&g, k);
        let q = quality(&g, &owner, k);
        // Random assignment cuts ~ (1 - 1/k) of all edges.
        let total_edges = (g.adjncy.len() / 2) as f64;
        let random_cut = total_edges * (1.0 - 1.0 / k as f64);
        assert!(
            (q.edge_cut as f64) < random_cut / 4.0,
            "cut {} vs random {}",
            q.edge_cut,
            random_cut
        );
    }

    /// A fresh count, from `owner` alone, of each vertex's neighbours in
    /// another part and of its edge weight into its own part.
    fn recount(level: &Level<'_>, owner: &[usize]) -> (Vec<u32>, Vec<u32>) {
        (0..level.len() as u32)
            .map(|v| {
                let own = |&(u, _): &(u32, u32)| owner[u as usize] == owner[v as usize];
                let foreign = level.neighbours(v).filter(|e| !own(e)).count() as u32;
                let internal: u32 = level.neighbours(v).filter(own).map(|(_, w)| w).sum();
                (foreign, internal)
            })
            .unzip()
    }

    /// `v`'s best move recomputed from `owner` and the loads alone: the
    /// adjacent part with room under the bound (or, from a part over it,
    /// lighter than that part after the move) with the most gain, the
    /// lighter of equals, the first seen of equal loads.
    fn naive_best_move(fm: &Refiner<'_>, v: u32, owner: &[usize]) -> Option<(usize, i64)> {
        let (src, w_v) = (owner[v as usize], fm.level.vwgt[v as usize]);
        if fm.loads[src] - w_v <= 0.0 {
            return None;
        }
        let mut link: Vec<(usize, i64)> = Vec::new();
        let mut internal = 0i64;
        for (u, w) in fm.level.neighbours(v) {
            let ou = owner[u as usize];
            if ou == src {
                internal += i64::from(w);
            } else if let Some(l) = link.iter_mut().find(|l| l.0 == ou) {
                l.1 += i64::from(w);
            } else {
                link.push((ou, i64::from(w)));
            }
        }
        let mut best: Option<(usize, i64)> = None;
        for (dst, l) in link {
            let gain = l - internal;
            let after = fm.loads[dst] + w_v;
            let room =
                after <= fm.max_load || (fm.loads[src] > fm.max_load && after < fm.loads[src]);
            if room
                && best.is_none_or(|(bd, bg)| {
                    gain > bg || (gain == bg && fm.loads[dst] < fm.loads[bd])
                })
            {
                best = Some((dst, gain));
            }
        }
        best
    }

    /// The summed load above `max_load` and the cut weight of `owner`,
    /// counted from scratch.
    fn overload_and_cut(level: &Level<'_>, owner: &[usize], k: usize, max_load: f64) -> (f64, u64) {
        let mut loads = vec![0.0f64; k];
        for v in 0..level.len() {
            loads[owner[v]] += level.vwgt[v];
        }
        let overload = loads.iter().map(|&l| (l - max_load).max(0.0)).sum();
        let cut: u64 = (0..level.len() as u32)
            .flat_map(|v| level.neighbours(v).map(move |(u, w)| (v, u, w)))
            .filter(|&(v, u, _)| owner[v as usize] != owner[u as usize])
            .map(|(_, _, w)| u64::from(w))
            .sum();
        (overload, cut / 2)
    }

    /// The FM refiner at k ∈ {2, 4, 8} on the finest level (tightened
    /// bound) and on a coarse one (ε bound), from the BFS chunking. After
    /// every pass: `ext` and `internal` equal a fresh recount, every
    /// boundary vertex's best move equals a naive recomputation, the
    /// queue is empty, and neither the overload nor — from a map within
    /// the bound — the cut is above the pass's input. `score` agrees with
    /// a recount.
    #[test]
    fn fm_passes_keep_exact_bookkeeping_and_never_raise_the_cut() {
        let g = demo_graph();
        let fine = Level::finest(&g);
        let (coarse, _) = contract(&fine, cells(&g).unwrap().0, cells(&g).unwrap().1).unwrap();
        for (level, finest) in [(&fine, true), (&coarse, false)] {
            for k in [2, 4, 8] {
                let mut owner = initial_partition(level, k, 0);
                let mut fm = Refiner::new(level, &owner, k, EPSILON, finest, None);
                let mut moved = false;
                for pass in 0..REFINE_PASSES {
                    let before = overload_and_cut(level, &owner, k, fm.max_load);
                    let input = owner.clone();
                    fm.pass(&mut owner);
                    let after = overload_and_cut(level, &owner, k, fm.max_load);
                    let (ext, internal) = recount(level, &owner);
                    assert_eq!(fm.ext, ext, "k={k} pass {pass}: ext drifted");
                    assert_eq!(fm.internal, internal, "k={k} pass {pass}: internal drifted");
                    for v in 0..level.len() as u32 {
                        assert_eq!(fm.queue.at[v as usize], UNQUEUED, "k={k}: {v} left queued");
                        if ext[v as usize] > 0 {
                            assert_eq!(
                                fm.best_move(v, &owner),
                                naive_best_move(&fm, v, &owner),
                                "k={k} pass {pass}: gain of {v}"
                            );
                        }
                    }
                    assert_eq!(fm.score(), after, "k={k} pass {pass}: score");
                    assert!(after.0 <= before.0, "k={k} pass {pass}: overload rose");
                    if before.0 == 0.0 {
                        assert!(
                            after.1 <= before.1,
                            "k={k} pass {pass}: cut {before:?} -> {after:?}"
                        );
                    }
                    if owner == input {
                        break;
                    }
                    moved = true;
                }
                assert!(moved, "k={k}: no move exercised the bookkeeping");
            }
        }
    }

    /// A refiner told the coarse level's boundary starts from the same
    /// state as one that scans every vertex, at every level of the demo
    /// graph's hierarchy.
    #[test]
    fn the_projected_boundary_gives_the_full_scan_state() {
        let g = demo_graph();
        for k in [2, 4, 8] {
            let levels = coarsen_levels(&g, k);
            let coarsest = levels.last().unwrap();
            let mut owner = initial_partition(coarsest, k, 0);
            let mut ext = refine(coarsest, &mut owner, k, false, None).ext;
            for (li, fine) in levels.iter().enumerate().rev().skip(1) {
                owner = fine.coarse_map.iter().map(|&c| owner[c as usize]).collect();
                let hinted = Some((&fine.coarse_map[..], &ext[..]));
                let a = Refiner::new(fine, &owner, k, EPSILON, li == 0, hinted);
                let b = Refiner::new(fine, &owner, k, EPSILON, li == 0, None);
                assert_eq!(a.ext, b.ext, "k={k} level {li}: ext");
                assert_eq!(a.internal, b.internal, "k={k} level {li}: internal");
                assert_eq!(a.cut, b.cut, "k={k} level {li}: cut");
                assert_eq!(
                    a.queue.offset, b.queue.offset,
                    "k={k} level {li}: gain range"
                );
                ext = refine(fine, &mut owner, k, li == 0, hinted).ext;
            }
        }
    }

    /// The refiner's rollback keeps the best prefix, so a whole `refine`
    /// never returns a cut above its input's, from a map in the bound.
    #[test]
    fn refine_never_returns_a_worse_cut() {
        let g = demo_graph();
        let fine = Level::finest(&g);
        let (coarse, _) = coarsen(&fine, &mut 42u64).unwrap();
        for (level, finest) in [(&fine, true), (&coarse, false)] {
            for k in [2, 4, 8] {
                let mut owner = initial_partition(level, k, 0);
                let max_load = Refiner::new(level, &owner, k, EPSILON, finest, None).max_load;
                let before = overload_and_cut(level, &owner, k, max_load);
                assert_eq!(before.0, 0.0, "k={k}: the chunking is within the bound");
                let after = refine(level, &mut owner, k, finest, None).score();
                assert_eq!(after, overload_and_cut(level, &owner, k, max_load));
                assert!(
                    after.1 <= before.1,
                    "k={k}: cut {} -> {}",
                    before.1,
                    after.1
                );
            }
        }
    }

    #[test]
    fn coarsening_preserves_total_weight() {
        let g = demo_graph();
        let level = Level::finest(&g);
        let mut rng = 42u64;
        let (coarse, map) = coarsen(&level, &mut rng).unwrap();
        assert!(coarse.len() < level.len());
        assert!(coarse.len() >= level.len() / 2, "matching halves at most");
        let fine_w: f64 = level.vwgt.iter().sum();
        let coarse_w: f64 = coarse.vwgt.iter().sum();
        assert!((fine_w - coarse_w).abs() < 1e-9);
        assert!(map.iter().all(|&c| (c as usize) < coarse.len()));
    }

    /// Two rounds of coarsening from the demo graph, `check(fine, coarse,
    /// map)` after each: the unit-weight finest level and a weighted
    /// coarse one as input.
    fn coarsen_twice(check: impl Fn(&Level<'_>, &Level<'_>, &[u32])) {
        let g = demo_graph();
        let mut rng = 42u64;
        let mut fine = Level::finest(&g);
        for _ in 0..2 {
            let (coarse, map) = coarsen(&fine, &mut rng).unwrap();
            check(&fine, &coarse, &map);
            fine = coarse;
        }
    }

    #[test]
    fn coarse_rows_are_ascending_and_loop_free() {
        coarsen_twice(|_, coarse, _| {
            for cv in 0..coarse.len() as u32 {
                let row: Vec<u32> = coarse.neighbours(cv).map(|(u, _)| u).collect();
                assert!(
                    row.windows(2).all(|p| p[0] < p[1]),
                    "row {cv} not ascending"
                );
                assert!(!row.contains(&cv), "self-loop at {cv}");
            }
        });
    }

    #[test]
    fn coarse_graph_is_symmetric_and_keeps_uncollapsed_edge_weight() {
        coarsen_twice(|fine, coarse, map| {
            let as_graph = SiteGraph {
                xadj: coarse.xadj.to_vec(),
                adjncy: coarse.adjncy.to_vec(),
                vwgt: coarse.vwgt.to_vec(),
                vwgt2: None,
                coords: vec![[0.0; 3]; coarse.len()],
            };
            as_graph.validate().unwrap();
            let total = |l: &Level<'_>| -> u64 {
                (0..l.len() as u32)
                    .flat_map(|v| l.neighbours(v))
                    .map(|(_, w)| u64::from(w))
                    .sum()
            };
            let collapsed: u64 = (0..fine.len() as u32)
                .flat_map(|v| fine.neighbours(v).map(move |(u, w)| (v, u, w)))
                .filter(|&(v, u, _)| map[v as usize] == map[u as usize])
                .map(|(_, _, w)| u64::from(w))
                .sum();
            assert!(collapsed > 0, "matching collapsed no edge");
            assert_eq!(total(coarse), total(fine) - collapsed);
        });
    }

    /// A star: vertex 0 joined to every other vertex, no other edges.
    /// Heavy-edge matching collapses exactly one pair per round (the hub
    /// and one spoke; every other spoke's only neighbour is then
    /// matched), the worst case for coarsening progress.
    fn star_graph(n: usize) -> SiteGraph {
        let mut xadj = vec![0usize];
        let mut adjncy = Vec::new();
        for v in 0..n {
            if v == 0 {
                adjncy.extend(1..n as u32);
            } else {
                adjncy.push(0);
            }
            xadj.push(adjncy.len());
        }
        SiteGraph {
            xadj,
            adjncy,
            vwgt: vec![1.0; n],
            vwgt2: None,
            coords: (0..n).map(|v| [v as f64, 0.0, 0.0]).collect(),
        }
    }

    #[test]
    fn coarsening_terminates_on_a_star_graph() {
        // Stall-guard regression: matching shrinks a star by one vertex
        // per level, so coarsening can never reach the target size; the
        // progress guard must break to refinement instead of spinning.
        let g = star_graph(400);
        assert_eq!(cells(&g), None, "a line of sites only halves");
        let owner = MultilevelKWay.partition(&g, 4);
        assert_eq!(owner.len(), 400);
        assert!(owner.iter().all(|&o| o < 4));
        let q = quality(&g, &owner, 4);
        assert!(q.imbalance < 1.5, "imbalance {}", q.imbalance);
    }

    #[test]
    fn coarsening_terminates_on_an_edgeless_graph() {
        // Every vertex self-matches, so a level does not shrink at all —
        // the zero-progress extreme of the stall case.
        let n = 300;
        let g = edgeless_graph(n);
        assert_eq!(cells(&g), None, "a line of sites only halves");
        let owner = MultilevelKWay.partition(&g, 3);
        assert_eq!(owner.len(), n);
        assert!(owner.iter().all(|&o| o < 3));
        let q = quality(&g, &owner, 3);
        assert!(
            (q.imbalance - 1.0).abs() < 0.05,
            "imbalance {}",
            q.imbalance
        );
        assert_eq!(q.edge_cut, 0);
    }

    fn edgeless_graph(n: usize) -> SiteGraph {
        SiteGraph {
            xadj: vec![0; n + 1],
            adjncy: Vec::new(),
            vwgt: vec![1.0; n],
            vwgt2: None,
            coords: (0..n).map(|v| [v as f64, 0.0, 0.0]).collect(),
        }
    }

    /// The coarse level `fine` and `map` define, built the obvious way:
    /// per coarse vertex an ordered map of neighbour → summed edge
    /// weight, and vertex weights summed from `0.0` in ascending fine
    /// index. Returns `xadj`, `adjncy`, the edge weights and `vwgt`.
    fn naive_coarse(fine: &Level<'_>, map: &[u32]) -> (Vec<usize>, Vec<u32>, Vec<u32>, Vec<f64>) {
        let nc = map.iter().max().map_or(0, |&c| c as usize + 1);
        let mut rows = vec![BTreeMap::<u32, u32>::new(); nc];
        let mut vwgt = vec![0.0f64; nc];
        for v in 0..fine.len() as u32 {
            let cv = map[v as usize];
            vwgt[cv as usize] += fine.vwgt[v as usize];
            for (u, w) in fine.neighbours(v) {
                let cu = map[u as usize];
                if cu != cv {
                    *rows[cv as usize].entry(cu).or_default() += w;
                }
            }
        }
        let mut xadj = vec![0];
        let (mut adjncy, mut adjwgt) = (Vec::new(), Vec::new());
        for row in rows {
            adjncy.extend(row.keys());
            adjwgt.extend(row.values());
            xadj.push(adjncy.len());
        }
        (xadj, adjncy, adjwgt, vwgt)
    }

    /// Every level `partition` coarsens `graph` to for `k` parts equals
    /// the naive rebuild from the level above and its map, bit for bit.
    fn assert_levels_equal_naive_rebuilds(graph: &SiteGraph, k: usize) -> usize {
        let levels = coarsen_levels(graph, k);
        for (li, pair) in levels.windows(2).enumerate() {
            let (fine, coarse) = (&pair[0], &pair[1]);
            let (xadj, adjncy, adjwgt, vwgt) = naive_coarse(fine, &fine.coarse_map);
            assert_eq!(*coarse.xadj, *xadj, "level {li}: xadj");
            assert_eq!(*coarse.adjncy, *adjncy, "level {li}: adjncy");
            assert_eq!(
                coarse.adjwgt.as_deref(),
                Some(&adjwgt[..]),
                "level {li}: adjwgt"
            );
            let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&coarse.vwgt), bits(&vwgt), "level {li}: vwgt");
        }
        levels.len() - 1
    }

    /// The cell grouping rebuilt with an ordered map from cell coordinate
    /// to id: ids in ascending first-site order.
    fn naive_cells(graph: &SiteGraph) -> (Vec<u32>, usize) {
        let mut ids = BTreeMap::new();
        let map = graph
            .coords
            .iter()
            .map(|c| {
                let key = c.map(|x| (x.floor() as i64).div_euclid(2));
                let next = ids.len() as u32;
                *ids.entry(key).or_insert(next)
            })
            .collect();
        (map, ids.len())
    }

    #[test]
    fn coarse_level_equals_a_naive_rebuild() {
        let g = demo_graph();
        // The first level is the cell level, checked against both rebuilds.
        let (map, nc) = cells(&g).expect("a lattice takes the cell level");
        assert_eq!((map.clone(), nc), naive_cells(&g));
        assert_eq!(coarsen_levels(&g, 2)[0].coarse_map, map);
        assert!(assert_levels_equal_naive_rebuilds(&g, 2) >= 3);
        let mut weighted = g;
        let nx = weighted.coords.iter().map(|c| c[0]).fold(0.0, f64::max) + 1.0;
        weighted.vwgt = weighted.coords.iter().map(|c| 1.0 + c[0] / nx).collect();
        assert!(assert_levels_equal_naive_rebuilds(&weighted, 2) >= 3);
        assert_eq!(assert_levels_equal_naive_rebuilds(&star_graph(400), 4), 1);
        assert_eq!(
            assert_levels_equal_naive_rebuilds(&edgeless_graph(300), 3),
            1
        );
    }

    /// A symmetric graph on `n` vertices from a list of vertex pairs
    /// (self-pairs and repeats dropped, rows in list order) with the
    /// given vertex weights.
    fn symmetric_graph(n: usize, pairs: &[(u32, u32)], vwgt: &[f64]) -> SiteGraph {
        let mut rows = vec![Vec::new(); n];
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in pairs {
            let (a, b) = (a % n as u32, b % n as u32);
            if a != b && seen.insert((a.min(b), a.max(b))) {
                rows[a as usize].push(b);
                rows[b as usize].push(a);
            }
        }
        let mut xadj = vec![0];
        let mut adjncy = Vec::new();
        for row in rows {
            adjncy.extend(row);
            xadj.push(adjncy.len());
        }
        SiteGraph {
            xadj,
            adjncy,
            vwgt: vwgt[..n].to_vec(),
            vwgt2: None,
            coords: vec![[0.0; 3]; n],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_coarse_levels_equal_naive_rebuilds(
            n in 65usize..400,
            pairs in proptest::collection::vec((0u32..400, 0u32..400), 0..2400),
            vwgt in proptest::collection::vec(0.05f64..4.0, 400),
        ) {
            let g = symmetric_graph(n, &pairs, &vwgt);
            g.validate().unwrap();
            assert_levels_equal_naive_rebuilds(&g, 2);
        }
    }

    /// Symmetry is `partition`'s precondition, but an asymmetric graph
    /// must not make it index out of bounds or panic: coarsening stops at
    /// the level whose rows would overflow.
    #[test]
    fn an_asymmetric_graph_is_partitioned_without_a_panic() {
        // Every spoke points at the hub, and the hub at nothing: the
        // hub's coarse row gets 398 entries and has room for 1.
        let n = 400;
        let mut xadj = vec![0usize, 0];
        xadj.extend(1..n);
        let inward = SiteGraph {
            xadj,
            adjncy: vec![0; n - 1],
            vwgt: vec![1.0; n],
            vwgt2: None,
            coords: vec![[0.0; 3]; n],
        };
        let fine = Level::finest(&inward);
        assert_eq!(cells(&inward), None, "400 vertices in one cell");
        assert_eq!(
            coarsen(&fine, &mut 42u64).unwrap_err(),
            CoarsenError::Asymmetric
        );
        // The demo graph with the last entry of every third row dropped.
        let g = demo_graph();
        let mut xadj = vec![0];
        let mut adjncy = Vec::new();
        for v in 0..g.len() as u32 {
            let row = g.neighbours(v);
            let keep = if v % 3 == 0 {
                row.len().saturating_sub(1)
            } else {
                row.len()
            };
            adjncy.extend(&row[..keep]);
            xadj.push(adjncy.len());
        }
        // Its coords are the demo lattice's, so it takes the cell level.
        let lopsided = SiteGraph { xadj, adjncy, ..g };
        assert!(lopsided.validate().is_err());
        for (graph, k) in [(&inward, 4), (&lopsided, 2), (&lopsided, 8)] {
            let owner = MultilevelKWay.partition(graph, k);
            assert_eq!(owner.len(), graph.len());
            assert!(owner.iter().all(|&o| o < k));
        }
    }

    /// The demo graph with every coord zero: one cell would hold every
    /// vertex, so the graph is matched from the finest level and still
    /// partitioned within the bound.
    #[test]
    fn a_graph_with_zero_coords_takes_the_matching_path() {
        let mut g = demo_graph();
        g.coords = vec![[0.0; 3]; g.len()];
        assert_eq!(cells(&g), None);
        assert!(assert_levels_equal_naive_rebuilds(&g, 2) >= 3);
        for k in [2, 4] {
            let owner = MultilevelKWay.partition(&g, k);
            let q = quality(&g, &owner, k);
            assert!(
                q.imbalance <= 1.0 + EPSILON + 1e-9,
                "k={k}: {}",
                q.imbalance
            );
        }
    }

    /// The fluid sites of a `side`³ grid inside any of `balls` (centre,
    /// radius), numbered x-major, with D3Q15 links.
    fn blob_graph(side: i32, balls: &[([f64; 3], f64)]) -> SiteGraph {
        let inside = |p: [i32; 3]| {
            balls.iter().any(|(c, r)| {
                (0..3)
                    .map(|a| (f64::from(p[a]) - c[a]).powi(2))
                    .sum::<f64>()
                    <= r * r
            })
        };
        let mut index = std::collections::HashMap::new();
        let mut coords = Vec::new();
        for x in 0..side {
            for y in 0..side {
                for z in 0..side {
                    if inside([x, y, z]) {
                        index.insert([x, y, z], coords.len() as u32);
                        coords.push([x, y, z]);
                    }
                }
            }
        }
        let offsets = Connectivity::D3Q15.offsets();
        let mut xadj = vec![0];
        let mut adjncy = Vec::new();
        for p in &coords {
            for o in &offsets {
                if let Some(&u) = index.get(&[p[0] + o[0], p[1] + o[1], p[2] + o[2]]) {
                    adjncy.push(u);
                }
            }
            xadj.push(adjncy.len());
        }
        SiteGraph {
            xadj,
            adjncy,
            vwgt: vec![1.0; coords.len()],
            vwgt2: None,
            coords: coords.iter().map(|p| p.map(f64::from)).collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random fluid blobs of up to three balls in a grid of at most
        /// 12³: a valid owner map, no empty part, imbalance within
        /// `1 + ε`, and the same map on a second run. A blob needs 20
        /// sites a part for `1 + ε` to be reachable at unit weights.
        #[test]
        fn random_blobs_partition_within_the_bound(
            side in 8i32..=12,
            balls in proptest::collection::vec(
                ((0.0f64..12.0, 0.0f64..12.0, 0.0f64..12.0), 3.0f64..6.0), 1..=3),
            k in 2usize..=8,
        ) {
            let balls: Vec<_> = balls.into_iter().map(|((x, y, z), r)| ([x, y, z], r)).collect();
            let g = blob_graph(side, &balls);
            prop_assume!(g.len() >= 20 * k);
            g.validate().unwrap();
            let owner = MultilevelKWay.partition(&g, k);
            prop_assert_eq!(owner.len(), g.len());
            let mut sizes = vec![0usize; k];
            for &o in &owner {
                prop_assert!(o < k);
                sizes[o] += 1;
            }
            prop_assert!(sizes.iter().all(|&s| s > 0), "empty part: {:?}", sizes);
            let q = quality(&g, &owner, k);
            prop_assert!(q.imbalance <= 1.0 + EPSILON + 1e-9, "imbalance {} sizes {:?}", q.imbalance, sizes);
            prop_assert_eq!(MultilevelKWay.partition(&g, k), owner);
        }
    }

    #[test]
    fn k_equals_one_short_circuits() {
        let g = demo_graph();
        let owner = MultilevelKWay.partition(&g, 1);
        assert!(owner.iter().all(|&o| o == 0));
    }
}
