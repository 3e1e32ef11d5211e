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
//! coarse row is summed in a dense array indexed by coarse id, its
//! touched ids sorted and emitted; refinement keeps each vertex's count
//! of neighbours in another part and skips a vertex whose count is 0.
//!
//! This returns the same owner vector, bit for bit, as the per-row
//! `HashMap`, member-list and full-rescan code it replaced (pinned by
//! `tests/golden/kway_owner.txt`): every weight sum starts at `0.0` and
//! adds the same terms in the same member / neighbour order; members
//! come in ascending fine index either way; and on a symmetric graph a
//! zero count is exactly "no foreign part found by a rescan", so every
//! move decision is the same.

use crate::graph::SiteGraph;
use crate::Partitioner;
use std::borrow::Cow;

/// Weighted CSR graph used internally across coarsening levels.
#[derive(Debug)]
struct Level<'g> {
    xadj: Cow<'g, [usize]>,
    adjncy: Cow<'g, [u32]>,
    /// Edge weights; `None` on the finest level, where every edge
    /// weighs 1.
    adjwgt: Option<Vec<f64>>,
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
    fn neighbours(&self, v: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let r = self.xadj[v as usize]..self.xadj[v as usize + 1];
        let w = self.adjwgt.as_deref().map(|w| &w[r.clone()]);
        self.adjncy[r]
            .iter()
            .enumerate()
            .map(move |(i, &u)| (u, w.map_or(1.0, |w| w[i])))
    }
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

        // Phase 1: coarsen, with an explicit stall guard. Heavy-edge
        // matching makes no real progress on adversarial topologies — a
        // star graph collapses only one pair per round, an edgeless
        // graph not at all — so a level shrinking by less than 5% breaks
        // straight to initial partitioning + refinement on what we have.
        // Without the guard such a level could be re-coarsened forever
        // while never approaching the target size.
        let mut levels = vec![Level::finest(graph)];
        let target = (COARSEN_FACTOR * k).max(64);
        let mut rng = SEED | 1;
        loop {
            let last = levels.last().expect("nonempty");
            if last.len() <= target {
                break;
            }
            let (coarse, map) = coarsen(last, &mut rng);
            let stalled = coarse.len() >= last.len() * 95 / 100;
            let reached_target = coarse.len() <= target;
            levels.last_mut().expect("nonempty").coarse_map = map;
            levels.push(coarse);
            if stalled || reached_target {
                break;
            }
        }

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
fn coarsen(fine: &Level<'_>, rng: &mut u64) -> (Level<'static>, Vec<u32>) {
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
        // Heaviest unmatched neighbour.
        let mut best: Option<(u32, f64)> = None;
        for (u, w) in fine.neighbours(v) {
            if mate[u as usize] == unmatched && u != v {
                match best {
                    Some((_, bw)) if bw >= w => {}
                    _ => best = Some((u, w)),
                }
            }
        }
        match best {
            Some((u, _)) => {
                mate[v as usize] = u;
                mate[u as usize] = v;
            }
            None => mate[v as usize] = v, // matched with itself
        }
    }

    // Assign coarse ids in ascending fine index: a pair's id goes to its
    // lower index, kept in `first`; the partner is that vertex's mate.
    let mut coarse_map = vec![u32::MAX; n];
    let mut first: Vec<u32> = Vec::with_capacity(n);
    for v in 0..n as u32 {
        if coarse_map[v as usize] != u32::MAX {
            continue;
        }
        let id = first.len() as u32;
        coarse_map[v as usize] = id;
        coarse_map[mate[v as usize] as usize] = id;
        first.push(v);
    }

    // Build the coarse graph: combine vertex weights, collapse edges.
    // `wacc[cu]` holds the current row's weight to `cu` iff
    // `stamp[cu]` is that row's id; `row` lists the ids it touched.
    let nc = first.len();
    let mut vwgt = Vec::with_capacity(nc);
    let mut xadj = Vec::with_capacity(nc + 1);
    xadj.push(0);
    let mut adjncy: Vec<u32> = Vec::with_capacity(fine.adjncy.len() / 2);
    let mut adjwgt: Vec<f64> = Vec::with_capacity(fine.adjncy.len() / 2);
    let mut wacc = vec![0.0f64; nc];
    let mut stamp = vec![u32::MAX; nc];
    let mut row: Vec<u32> = Vec::new();
    for (cv, &a) in first.iter().enumerate() {
        let cv = cv as u32;
        let b = mate[a as usize];
        let pair = [a, b];
        let members = &pair[..if b == a { 1 } else { 2 }];
        let mut w_v = 0.0f64;
        row.clear();
        for &v in members {
            w_v += fine.vwgt[v as usize];
            for (u, w) in fine.neighbours(v) {
                let cu = coarse_map[u as usize];
                if cu == cv {
                    continue;
                }
                if stamp[cu as usize] != cv {
                    stamp[cu as usize] = cv;
                    wacc[cu as usize] = 0.0;
                    row.push(cu);
                }
                wacc[cu as usize] += w;
            }
        }
        vwgt.push(w_v);
        row.sort_unstable();
        for &cu in &row {
            adjncy.push(cu);
            adjwgt.push(wacc[cu as usize]);
        }
        xadj.push(adjncy.len());
    }
    (
        Level {
            xadj: Cow::Owned(xadj),
            adjncy: Cow::Owned(adjncy),
            adjwgt: Some(adjwgt),
            vwgt: Cow::Owned(vwgt),
            coarse_map: Vec::new(),
        },
        coarse_map,
    )
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
                            self.ext[u as usize] -= 1;
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
        let (coarse, _) = coarsen(&fine, &mut 42u64);
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
        let (coarse, map) = coarsen(&level, &mut rng);
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
            let (coarse, map) = coarsen(&fine, &mut rng);
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
        let g = SiteGraph {
            xadj: vec![0; n + 1],
            adjncy: Vec::new(),
            vwgt: vec![1.0; n],
            vwgt2: None,
            coords: (0..n).map(|v| [v as f64, 0.0, 0.0]).collect(),
        };
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

    #[test]
    fn k_equals_one_short_circuits() {
        let g = demo_graph();
        let owner = MultilevelKWay.partition(&g, 1);
        assert!(owner.iter().all(|&o| o == 0));
    }
}
