//! Multilevel k-way graph partitioning — the ParMETIS-family algorithm
//! HemeLB delegates its domain decomposition to.
//!
//! Three phases, exactly as in the METIS literature the paper cites:
//!
//! 1. **Coarsening** by heavy-edge matching until the graph is small;
//! 2. **Initial partitioning** of the coarsest graph by BFS-ordered
//!    weight chunking (a greedy graph-growing variant);
//! 3. **Uncoarsening** with greedy boundary Kernighan–Lin refinement at
//!    every level, under a balance constraint.
//!
//! Bookkeeping: the finest level borrows the [`SiteGraph`] (its edges
//! all weigh 1, so no weight array is built); a coarse vertex is its
//! pair's lower fine index, the partner being that vertex's mate; a
//! coarse edge weight is a `u32`, the number of fine edges it merges;
//! refinement keeps each vertex's count of neighbours in another part and
//! skips a vertex whose count is 0.
//!
//! On the finest level matching takes the first unmatched neighbour: all
//! weights are 1, so that is the heaviest one, the one a full scan that
//! keeps the first of equals would pick. The coarse graph is built in one
//! ordered scatter pass. Coarse vertices are visited in ascending id, and
//! each appends its id to the row of every coarse neighbour, merging a
//! repeat into that row's last entry. Rows come out ascending with no
//! sort, and on a symmetric graph the scattered rows are the rows
//! themselves, so no transpose is needed. Each row has the room its
//! members' out-edges give it (their in-edges, on a symmetric graph); a
//! row that overflows it shows the graph is asymmetric, and coarsening
//! stops at that level rather than index past the row. A graph of more
//! than `u32::MAX` directed edges is not coarsened either, so no slot or
//! weight can wrap.
//!
//! This returns the same owner vector, bit for bit, as the per-row sorted
//! `f64` accumulator, `HashMap`, member-list and full-rescan code it
//! replaced (pinned by `tests/golden/kway_owner.txt`). Every edge-weight
//! sum, here or in refinement, is a sum of integers far below 2⁵³, so it
//! is exact in `f64` whatever order it adds in; vertex weights, which are
//! not integers, are still summed from `0.0` over the members in
//! ascending fine index. On a symmetric graph a zero count is exactly "no
//! foreign part found by a rescan", so every move decision is the same.

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
    fn neighbours(&self, v: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let r = self.row(v);
        let w = self.adjwgt.as_deref().map(|w| &w[r.clone()]);
        self.adjncy[r]
            .iter()
            .enumerate()
            .map(move |(i, &u)| (u, w.map_or(1.0, |w| f64::from(w[i]))))
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
/// Maximum refinement passes per level.
const REFINE_PASSES: usize = 8;
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

        // Phase 2: initial partition of the coarsest level.
        let coarsest = levels.last().expect("nonempty");
        let mut owner = initial_partition(coarsest, k);
        refine(coarsest, &mut owner, k, EPSILON, REFINE_PASSES);

        // Phase 3: project back, refining at each level.
        for li in (0..levels.len() - 1).rev() {
            let fine = &levels[li];
            let mut fine_owner = vec![0usize; fine.len()];
            for v in 0..fine.len() {
                fine_owner[v] = owner[fine.coarse_map[v] as usize];
            }
            owner = fine_owner;
            refine(fine, &mut owner, k, EPSILON, REFINE_PASSES);
        }
        owner
    }

    fn name(&self) -> &'static str {
        "kway"
    }
}

/// The coarsening hierarchy for `k` parts, finest first, each level but
/// the last holding its map to the next.
///
/// There is an explicit stall guard. Heavy-edge matching makes no real
/// progress on adversarial topologies — a star graph collapses only one
/// pair per round, an edgeless graph not at all — so a level shrinking by
/// less than 5% is the last. Without the guard such a level could be
/// re-coarsened forever while never approaching the target size. A level
/// [`coarsen`] refuses is the last too.
fn coarsen_levels(graph: &SiteGraph, k: usize) -> Vec<Level<'_>> {
    let mut levels = vec![Level::finest(graph)];
    let target = (COARSEN_FACTOR * k).max(64);
    let mut rng = SEED | 1;
    loop {
        let last = levels.last().expect("nonempty");
        if last.len() <= target {
            break;
        }
        let Ok((coarse, map)) = coarsen(last, &mut rng) else {
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

/// xorshift64* step for deterministic tie-breaking.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// Heavy-edge matching coarsening. Returns the coarse level and the
/// fine→coarse map.
fn coarsen(fine: &Level<'_>, rng: &mut u64) -> Result<(Level<'static>, Vec<u32>), CoarsenError> {
    let n = fine.len();
    let edges = u32::try_from(fine.adjncy.len()).map_err(|_| CoarsenError::TooManyEdges)?;
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
        let r = fine.row(v);
        let free = |u: u32| u != v && mate[u as usize] == unmatched;
        let best = match fine.adjwgt.as_deref() {
            // Every edge weighs 1: the first free neighbour is the
            // heaviest, the first of equals being kept.
            None => fine.adjncy[r].iter().copied().find(|&u| free(u)),
            // Heaviest free neighbour, the first of equals kept.
            Some(adjwgt) => {
                let mut best: Option<(u32, u32)> = None;
                for (&u, &w) in fine.adjncy[r.clone()].iter().zip(&adjwgt[r]) {
                    if free(u) && best.is_none_or(|(_, bw)| w > bw) {
                        best = Some((u, w));
                    }
                }
                best.map(|(u, _)| u)
            }
        };
        let u = best.unwrap_or(v); // matched with itself if none is free
        mate[v as usize] = u;
        mate[u as usize] = v;
    }

    // Assign coarse ids in ascending fine index: a pair's id goes to its
    // lower index, kept in `first`; the partner is that vertex's mate.
    // Row `cv` of the coarse graph gets the room its members' out-edges
    // give it, from `start[cv]` to `start[cv + 1]`.
    let mut coarse_map = vec![u32::MAX; n];
    let mut first: Vec<u32> = Vec::with_capacity(n);
    let mut start: Vec<u32> = Vec::with_capacity(n + 1);
    start.push(0);
    let mut room = 0u32;
    for v in 0..n as u32 {
        if coarse_map[v as usize] != u32::MAX {
            continue;
        }
        let id = first.len() as u32;
        let m = mate[v as usize];
        coarse_map[v as usize] = id;
        coarse_map[m as usize] = id;
        first.push(v);
        room += fine.row(v).len() as u32;
        if m != v {
            room += fine.row(m).len() as u32;
        }
        start.push(room);
    }

    // Scatter: visit coarse vertices in ascending id and append each one
    // to the rows of its coarse neighbours, so every row comes out
    // ascending. `tail[cu]` is row `cu`'s next free slot and the id last
    // appended to it: a repeat of that id merges into its entry.
    let nc = first.len();
    let mut vwgt = Vec::with_capacity(nc);
    let mut adjncy = vec![0u32; edges as usize];
    let mut adjwgt = vec![0u32; edges as usize];
    let mut tail: Vec<[u32; 2]> = start[..nc].iter().map(|&s| [s, u32::MAX]).collect();
    for (cv, &a) in first.iter().enumerate() {
        let cv = cv as u32;
        let b = mate[a as usize];
        let pair = [a, b];
        let members = &pair[..if b == a { 1 } else { 2 }];
        let mut w_v = 0.0f64;
        for &v in members {
            w_v += fine.vwgt[v as usize];
            let r = fine.row(v);
            for (i, &u) in fine.adjncy[r.clone()].iter().enumerate() {
                let cu = coarse_map[u as usize];
                if cu == cv {
                    continue;
                }
                let w = fine.adjwgt.as_deref().map_or(1, |aw| aw[r.start + i]);
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
        coarse_map,
    ))
}

/// Initial partition: BFS order from vertex 0 (component by component),
/// chunked by weight.
fn initial_partition(level: &Level<'_>, k: usize) -> Vec<usize> {
    let n = level.len();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n as u32 {
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
    for &v in &order {
        owner[v as usize] = current;
        acc += level.vwgt[v as usize];
        if current + 1 < k && acc >= target * (current as f64 + 1.0) {
            current += 1;
        }
    }
    owner
}

/// Greedy boundary KL refinement under a balance constraint.
fn refine(level: &Level<'_>, owner: &mut [usize], k: usize, epsilon: f64, max_passes: usize) {
    let mut refiner = Refiner::new(level, owner, k, epsilon);
    for _pass in 0..max_passes {
        if refiner.pass(owner) == 0 {
            break;
        }
    }
}

/// One level's refinement state: part loads and, per vertex, `ext` —
/// the number of its adjacency entries owned by another part, kept
/// exact across moves so that an interior vertex is skipped in O(1).
/// (Exact on a symmetric graph; on an asymmetric one a count may lag,
/// and it saturates at 0 rather than wrap.)
struct Refiner<'a> {
    level: &'a Level<'a>,
    loads: Vec<f64>,
    max_load: f64,
    ext: Vec<u32>,
    /// Scratch: edge weight from the visited vertex to each part.
    link: Vec<f64>,
    touched: Vec<usize>,
}

impl<'a> Refiner<'a> {
    fn new(level: &'a Level<'_>, owner: &[usize], k: usize, epsilon: f64) -> Self {
        let n = level.len();
        let total: f64 = level.vwgt.iter().sum();
        let mean = total / k as f64;
        let mut loads = vec![0.0f64; k];
        for v in 0..n {
            loads[owner[v]] += level.vwgt[v];
        }
        let ext = (0..n as u32)
            .map(|v| {
                let o = owner[v as usize];
                level
                    .neighbours(v)
                    .filter(|&(u, _)| owner[u as usize] != o)
                    .count() as u32
            })
            .collect();
        Refiner {
            level,
            loads,
            max_load: mean * (1.0 + epsilon),
            ext,
            link: vec![0.0f64; k],
            touched: Vec::with_capacity(8),
        }
    }

    /// One greedy pass over the vertices in index order, moves applied
    /// at once. Returns the number of moves.
    fn pass(&mut self, owner: &mut [usize]) -> usize {
        let level = self.level;
        let (link, touched, loads) = (&mut self.link, &mut self.touched, &mut self.loads);
        let mut moves = 0usize;
        for v in 0..level.len() as u32 {
            if self.ext[v as usize] == 0 {
                continue; // not a boundary vertex
            }
            let src = owner[v as usize];
            // Weight of edges into each adjacent part.
            touched.clear();
            let mut internal = 0.0;
            for (u, w) in level.neighbours(v) {
                let ou = owner[u as usize];
                if ou == src {
                    internal += w;
                } else {
                    if link[ou] == 0.0 {
                        touched.push(ou);
                    }
                    link[ou] += w;
                }
            }
            // Best destination by gain, then by load (deterministic).
            let w_v = level.vwgt[v as usize];
            let mut best: Option<(usize, f64)> = None;
            for &dst in touched.iter() {
                let gain = link[dst] - internal;
                if loads[dst] + w_v > self.max_load {
                    continue;
                }
                let better = match best {
                    None => gain > 0.0 || (gain == 0.0 && loads[dst] + w_v < loads[src]),
                    Some((bd, bg)) => gain > bg || (gain == bg && loads[dst] < loads[bd]),
                };
                if better {
                    best = Some((dst, gain));
                }
            }
            for &t in touched.iter() {
                link[t] = 0.0;
            }
            if let Some((dst, gain)) = best {
                // Do not empty the source part.
                if loads[src] - w_v <= 0.0 {
                    continue;
                }
                if gain > 0.0 || (gain == 0.0 && loads[dst] + w_v < loads[src]) {
                    owner[v as usize] = dst;
                    loads[src] -= w_v;
                    loads[dst] += w_v;
                    moves += 1;
                    // `v` left `src` for `dst`: neighbours in `src` gain a
                    // foreign neighbour, those in `dst` lose one.
                    let mut foreign = 0;
                    for (u, _) in level.neighbours(v) {
                        let ou = owner[u as usize];
                        if ou == src {
                            self.ext[u as usize] += 1;
                        } else if ou == dst {
                            self.ext[u as usize] = self.ext[u as usize].saturating_sub(1);
                        }
                        if ou != dst {
                            foreign += 1;
                        }
                    }
                    self.ext[v as usize] = foreign;
                }
            }
        }
        moves
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
        let total_edges = (g.directed_edge_count() / 2) as f64;
        let random_cut = total_edges * (1.0 - 1.0 / k as f64);
        assert!(
            (q.edge_cut as f64) < random_cut / 4.0,
            "cut {} vs random {}",
            q.edge_cut,
            random_cut
        );
    }

    #[test]
    fn refinement_never_worsens_cut() {
        let g = demo_graph();
        let k = 4;
        let level = Level::finest(&g);
        let mut owner = initial_partition(&level, k);
        let before = quality(&g, &owner, k).edge_cut;
        refine(&level, &mut owner, k, 0.05, 8);
        let after = quality(&g, &owner, k).edge_cut;
        assert!(after <= before, "refine worsened cut: {before} -> {after}");
    }

    /// A fresh count of each vertex's neighbours in another part.
    fn recount_ext(level: &Level<'_>, owner: &[usize]) -> Vec<u32> {
        (0..level.len() as u32)
            .map(|v| {
                level
                    .neighbours(v)
                    .filter(|&(u, _)| owner[u as usize] != owner[v as usize])
                    .count() as u32
            })
            .collect()
    }

    #[test]
    fn refine_keeps_foreign_counts_exact() {
        let g = demo_graph();
        let fine = Level::finest(&g);
        let (coarse, _) = coarsen(&fine, &mut 42u64).unwrap();
        for level in [&fine, &coarse] {
            for k in [2, 4, 8] {
                let mut owner = initial_partition(level, k);
                let mut refiner = Refiner::new(level, &owner, k, EPSILON);
                let mut moved = 0;
                for pass in 0..REFINE_PASSES {
                    let moves = refiner.pass(&mut owner);
                    assert_eq!(
                        refiner.ext,
                        recount_ext(level, &owner),
                        "k={k} pass {pass}: ext drifted"
                    );
                    moved += moves;
                    if moves == 0 {
                        break;
                    }
                }
                assert!(moved > 0, "k={k}: no move exercised the update");
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
            let total = |l: &Level<'_>| -> f64 {
                (0..l.len() as u32)
                    .flat_map(|v| l.neighbours(v))
                    .map(|(_, w)| w)
                    .sum()
            };
            let collapsed: f64 = (0..fine.len() as u32)
                .flat_map(|v| fine.neighbours(v).map(move |(u, w)| (v, u, w)))
                .filter(|&(v, u, _)| map[v as usize] == map[u as usize])
                .map(|(_, _, w)| w)
                .sum();
            assert!(collapsed > 0.0, "matching collapsed no edge");
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
                    *rows[cv as usize].entry(cu).or_default() += w as u32;
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

    #[test]
    fn coarse_level_equals_a_naive_rebuild() {
        let g = demo_graph();
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
        let lopsided = SiteGraph { xadj, adjncy, ..g };
        assert!(lopsided.validate().is_err());
        for (graph, k) in [(&inward, 4), (&lopsided, 2), (&lopsided, 8)] {
            let owner = MultilevelKWay.partition(graph, k);
            assert_eq!(owner.len(), graph.len());
            assert!(owner.iter().all(|&o| o < k));
        }
    }

    #[test]
    fn k_equals_one_short_circuits() {
        let g = demo_graph();
        let owner = MultilevelKWay.partition(&g, 1);
        assert!(owner.iter().all(|&o| o == 0));
    }
}
