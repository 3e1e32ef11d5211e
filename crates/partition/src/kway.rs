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

use crate::graph::SiteGraph;
use crate::Partitioner;

/// Weighted CSR graph used internally across coarsening levels.
#[derive(Debug, Clone)]
struct Level {
    xadj: Vec<usize>,
    adjncy: Vec<u32>,
    adjwgt: Vec<f64>,
    vwgt: Vec<f64>,
    /// Map from this level's vertices to the *next coarser* level.
    coarse_map: Vec<u32>,
}

impl Level {
    fn len(&self) -> usize {
        self.vwgt.len()
    }
    fn neighbours(&self, v: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let r = self.xadj[v as usize]..self.xadj[v as usize + 1];
        r.map(move |e| (self.adjncy[e], self.adjwgt[e]))
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
        let base = Level {
            xadj: graph.xadj.clone(),
            adjncy: graph.adjncy.clone(),
            adjwgt: vec![1.0; graph.adjncy.len()],
            vwgt: graph.vwgt.clone(),
            coarse_map: Vec::new(),
        };

        // Phase 1: coarsen, with an explicit stall guard. Heavy-edge
        // matching makes no real progress on adversarial topologies — a
        // star graph collapses only one pair per round, an edgeless
        // graph not at all — so a level shrinking by less than 5% breaks
        // straight to initial partitioning + refinement on what we have.
        // Without the guard such a level could be re-coarsened forever
        // while never approaching the target size.
        let mut levels = vec![base];
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
fn coarsen(fine: &Level, rng: &mut u64) -> (Level, Vec<u32>) {
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

    // Assign coarse ids (pair gets one id, deterministic by min index).
    let mut coarse_map = vec![u32::MAX; n];
    let mut next_id = 0u32;
    for v in 0..n as u32 {
        if coarse_map[v as usize] != u32::MAX {
            continue;
        }
        let m = mate[v as usize];
        coarse_map[v as usize] = next_id;
        if m != v && m != unmatched {
            coarse_map[m as usize] = next_id;
        }
        next_id += 1;
    }

    // Build the coarse graph: combine vertex weights, collapse edges.
    let nc = next_id as usize;
    let mut vwgt = vec![0.0f64; nc];
    for v in 0..n {
        vwgt[coarse_map[v] as usize] += fine.vwgt[v];
    }
    // Per-coarse-vertex edge accumulation.
    let mut xadj = vec![0usize; nc + 1];
    let mut adjncy: Vec<u32> = Vec::with_capacity(fine.adjncy.len() / 2);
    let mut adjwgt: Vec<f64> = Vec::with_capacity(fine.adjncy.len() / 2);
    // Group fine vertices by coarse id.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); nc];
    for v in 0..n as u32 {
        members[coarse_map[v as usize] as usize].push(v);
    }
    let mut acc: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
    for cv in 0..nc {
        acc.clear();
        for &v in &members[cv] {
            for (u, w) in fine.neighbours(v) {
                let cu = coarse_map[u as usize];
                if cu as usize != cv {
                    *acc.entry(cu).or_insert(0.0) += w;
                }
            }
        }
        let mut entries: Vec<(u32, f64)> = acc.iter().map(|(&u, &w)| (u, w)).collect();
        entries.sort_unstable_by_key(|e| e.0);
        for (u, w) in entries {
            adjncy.push(u);
            adjwgt.push(w);
        }
        xadj[cv + 1] = adjncy.len();
    }
    (
        Level {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
            coarse_map: Vec::new(),
        },
        coarse_map,
    )
}

/// Initial partition: BFS order from vertex 0 (component by component),
/// chunked by weight.
fn initial_partition(level: &Level, k: usize) -> Vec<usize> {
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
fn refine(level: &Level, owner: &mut [usize], k: usize, epsilon: f64, max_passes: usize) {
    let n = level.len();
    let total: f64 = level.vwgt.iter().sum();
    let mean = total / k as f64;
    let max_load = mean * (1.0 + epsilon);
    let mut loads = vec![0.0f64; k];
    for v in 0..n {
        loads[owner[v]] += level.vwgt[v];
    }

    let mut link = vec![0.0f64; k]; // scratch: edge weight to each part
    let mut touched: Vec<usize> = Vec::with_capacity(8);
    for _pass in 0..max_passes {
        let mut moves = 0usize;
        for v in 0..n as u32 {
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
            if touched.is_empty() {
                continue; // not a boundary vertex
            }
            // Best destination by gain, then by load (deterministic).
            let w_v = level.vwgt[v as usize];
            let mut best: Option<(usize, f64)> = None;
            for &dst in &touched {
                let gain = link[dst] - internal;
                if loads[dst] + w_v > max_load {
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
            for &t in &touched {
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
                }
            }
        }
        if moves == 0 {
            break;
        }
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
        let level = Level {
            xadj: g.xadj.clone(),
            adjncy: g.adjncy.clone(),
            adjwgt: vec![1.0; g.adjncy.len()],
            vwgt: g.vwgt.clone(),
            coarse_map: Vec::new(),
        };
        let mut owner = initial_partition(&level, k);
        let before = quality(&g, &owner, k).edge_cut;
        refine(&level, &mut owner, k, 0.05, 8);
        let after = quality(&g, &owner, k).edge_cut;
        assert!(after <= before, "refine worsened cut: {before} -> {after}");
    }

    #[test]
    fn coarsening_preserves_total_weight() {
        let g = demo_graph();
        let level = Level {
            xadj: g.xadj.clone(),
            adjncy: g.adjncy.clone(),
            adjwgt: vec![1.0; g.adjncy.len()],
            vwgt: g.vwgt.clone(),
            coarse_map: Vec::new(),
        };
        let mut rng = 42u64;
        let (coarse, map) = coarsen(&level, &mut rng);
        assert!(coarse.len() < level.len());
        assert!(coarse.len() >= level.len() / 2, "matching halves at most");
        let fine_w: f64 = level.vwgt.iter().sum();
        let coarse_w: f64 = coarse.vwgt.iter().sum();
        assert!((fine_w - coarse_w).abs() < 1e-9);
        assert!(map.iter().all(|&c| (c as usize) < coarse.len()));
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
