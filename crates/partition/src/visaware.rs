//! Visualisation-aware repartitioning (paper §IV-B, experiment E10).
//!
//! "If, however, visualisation comes into play the situation changes.
//! […] visualisation costs have to be considered now. A repartitioning
//! may be necessary."
//!
//! Given a partition balanced for *compute* weight only and a secondary
//! per-site *visualisation* weight (e.g. ray-sample counts from the
//! current camera), [`rebalance`] migrates boundary sites until **both**
//! weights satisfy the balance constraint, minimising cut damage, and
//! reports how much data had to move — the migration cost the paper says
//! repartitioning must be weighed against.

use crate::error::{PartitionError, PartitionResult};
use crate::graph::SiteGraph;
use crate::metrics::quality;

/// Result of a multi-constraint rebalance.
#[derive(Debug, Clone)]
pub struct RebalanceOutcome {
    /// The new owner map.
    pub owner: Vec<usize>,
    /// Vertices that changed owner.
    pub moved_vertices: usize,
    /// Primary weight moved (proportional to migrated site data).
    pub migration_volume: f64,
    /// Primary-weight imbalance before → after.
    pub imbalance_before: f64,
    /// Primary-weight imbalance after.
    pub imbalance_after: f64,
    /// Secondary-weight imbalance before.
    pub imbalance2_before: f64,
    /// Secondary-weight imbalance after.
    pub imbalance2_after: f64,
    /// Edge cut before.
    pub cut_before: u64,
    /// Edge cut after.
    pub cut_after: u64,
}

/// Migrate sites so that both the compute weight (`graph.vwgt`) and the
/// visualisation weight (`graph.vwgt2`) are balanced to within
/// `1 + epsilon`, starting from `owner`. A graph without secondary
/// weights gets a *single-constraint* rebalance (all secondary weights
/// zero): overloaded parts shed boundary vertices under the compute cap
/// only — a missing visualisation signal must never stop a rebalance
/// that the compute imbalance alone justifies.
///
/// # Errors
/// Returns [`PartitionError::OwnerLengthMismatch`] /
/// [`PartitionError::OwnerOutOfRange`] / [`PartitionError::ZeroParts`]
/// for malformed inputs. Historically these were panics, which meant a
/// mid-run rebalance could abort the whole SPMD job.
pub fn rebalance(
    graph: &SiteGraph,
    owner: &[usize],
    k: usize,
    epsilon: f64,
    max_passes: usize,
) -> PartitionResult<RebalanceOutcome> {
    validate_owner(graph, owner, k)?;
    let zeros;
    let w2 = match graph.vwgt2.as_ref() {
        Some(w2) => w2,
        None => {
            zeros = vec![0.0f64; graph.len()];
            &zeros
        }
    };
    let n = graph.len();

    let q_before = quality(graph, owner, k);
    let mut owner = owner.to_vec();

    let total1: f64 = graph.vwgt.iter().sum();
    let total2: f64 = w2.iter().sum();
    let max1 = total1 / k as f64 * (1.0 + epsilon);
    let max2 = total2 / k as f64 * (1.0 + epsilon);

    let mut loads1 = vec![0.0f64; k];
    let mut loads2 = vec![0.0f64; k];
    for v in 0..n {
        loads1[owner[v]] += graph.vwgt[v];
        loads2[owner[v]] += w2[v];
    }

    let mut moved = vec![false; n];
    let mut link = vec![0.0f64; k];
    let mut touched: Vec<usize> = Vec::with_capacity(8);

    for _pass in 0..max_passes {
        let mut moves = 0usize;
        for v in 0..n as u32 {
            let vi = v as usize;
            let src = owner[vi];
            touched.clear();
            let mut internal = 0.0;
            for &u in graph.neighbours(v) {
                let ou = owner[u as usize];
                if ou == src {
                    internal += 1.0;
                } else {
                    if link[ou] == 0.0 {
                        touched.push(ou);
                    }
                    link[ou] += 1.0;
                }
            }
            if touched.is_empty() {
                continue;
            }
            let w1v = graph.vwgt[vi];
            let w2v = w2[vi];
            let src_overloaded = loads2[src] > max2 || loads1[src] > max1;
            // "Make room": a part that is compute-heavy but vis-light
            // sheds *invisible* vertices downhill so that neighbouring
            // vis-overloaded parts can later push visible work into the
            // freed capacity. Without this, the compute cap freezes the
            // diffusion after one boundary layer.
            let mean1 = total1 / k as f64;
            let making_room = w2v == 0.0 && loads2[src] < total2 / k as f64 && loads1[src] > mean1;
            let mut best: Option<(usize, f64)> = None;
            for &dst in &touched {
                if loads1[dst] + w1v > max1 || loads2[dst] + w2v > max2 {
                    continue;
                }
                let gain = link[dst] - internal;
                // When the source violates a constraint, accept the least
                // damaging move; otherwise require non-worsening cut and
                // strictly less loaded destination — or a make-room move
                // to a compute-lighter part.
                let acceptable = src_overloaded
                    || (making_room && loads1[dst] + w1v < loads1[src])
                    || gain > 0.0
                    || (gain == 0.0 && loads2[dst] + w2v < loads2[src]);
                if !acceptable {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bd, bg)) => gain > bg || (gain == bg && loads2[dst] < loads2[bd]),
                };
                if better {
                    best = Some((dst, gain));
                }
            }
            for &t in &touched {
                link[t] = 0.0;
            }
            if let Some((dst, _)) = best {
                if loads1[src] - w1v <= 0.0 {
                    continue;
                }
                owner[vi] = dst;
                loads1[src] -= w1v;
                loads1[dst] += w1v;
                loads2[src] -= w2v;
                loads2[dst] += w2v;
                moved[vi] = true;
                moves += 1;
            }
        }
        let balanced = loads1.iter().all(|&l| l <= max1) && loads2.iter().all(|&l| l <= max2);
        if moves == 0 || balanced {
            if balanced {
                break;
            }
            if moves == 0 {
                break;
            }
        }
    }

    let q_after = quality(graph, &owner, k);
    let moved_vertices = moved.iter().filter(|&&m| m).count();
    let migration_volume = moved
        .iter()
        .enumerate()
        .filter(|(_, &m)| m)
        .map(|(v, _)| graph.vwgt[v])
        .sum();

    Ok(RebalanceOutcome {
        owner,
        moved_vertices,
        migration_volume,
        imbalance_before: q_before.imbalance,
        imbalance_after: q_after.imbalance,
        imbalance2_before: q_before.vis_imbalance(),
        imbalance2_after: q_after.vis_imbalance(),
        cut_before: q_before.edge_cut,
        cut_after: q_after.edge_cut,
    })
}

fn validate_owner(graph: &SiteGraph, owner: &[usize], k: usize) -> PartitionResult<()> {
    if k == 0 {
        return Err(PartitionError::ZeroParts);
    }
    if owner.len() != graph.len() {
        return Err(PartitionError::OwnerLengthMismatch {
            owner_len: owner.len(),
            graph_len: graph.len(),
        });
    }
    if let Some((vertex, &o)) = owner.iter().enumerate().find(|&(_, &o)| o >= k) {
        return Err(PartitionError::OwnerOutOfRange {
            vertex,
            owner: o,
            k,
        });
    }
    Ok(())
}

/// Full multi-constraint repartition by **striping**: sites are ordered
/// along the Hilbert curve and dealt to parts in round-robin blocks of
/// `block` sites. Every part then holds ≈1/k of *every* region of the
/// domain, so **any** additional per-site weight — today's camera,
/// tomorrow's — is balanced to within the block granularity. The price
/// is edge cut (each part's territory is k interleaved stripes), which
/// is the classic multi-constraint trade-off; the E10 experiment
/// measures both sides.
pub fn striped_multiconstraint(graph: &SiteGraph, k: usize, block: usize) -> Vec<usize> {
    assert!(k > 0 && block > 0);
    let mut order: Vec<u32> = (0..graph.len() as u32).collect();
    let max_c = graph
        .coords
        .iter()
        .flat_map(|c| c.iter())
        .cloned()
        .fold(0.0, f64::max) as u32;
    let bits = (32 - max_c.leading_zeros()).max(1);
    order.sort_unstable_by_key(|&v| {
        let c = graph.coords[v as usize];
        crate::sfc::hilbert3([c[0] as u32, c[1] as u32, c[2] as u32], bits)
    });
    let mut owner = vec![0usize; graph.len()];
    for (i, &v) in order.iter().enumerate() {
        owner[v as usize] = (i / block) % k;
    }
    owner
}

/// A synthetic visualisation weight: sites in front of the camera plane
/// get weight proportional to how many rays sample them — approximated
/// by their projected footprint (uniform here) times a view-dependent
/// mask. Real weights come from the renderer; this one exists so the
/// partition crate can be exercised standalone.
pub fn synthetic_view_weights(
    graph: &SiteGraph,
    view_dir: [f64; 3],
    visible_fraction: f64,
) -> Vec<f64> {
    // Project each site onto the view direction; the nearest
    // `visible_fraction` of sites get weight 1, the rest 0 (occluded /
    // out of frustum).
    let mut depth: Vec<(f64, usize)> = graph
        .coords
        .iter()
        .enumerate()
        .map(|(v, c)| {
            (
                c[0] * view_dir[0] + c[1] * view_dir[1] + c[2] * view_dir[2],
                v,
            )
        })
        .collect();
    // total_cmp, not partial_cmp().unwrap(): a NaN coordinate (degenerate
    // SDF voxelisation) must not abort weight synthesis mid-run.
    depth.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let visible = ((graph.len() as f64 * visible_fraction) as usize).min(graph.len());
    let mut w = vec![0.0; graph.len()];
    for &(_, v) in depth.iter().take(visible) {
        w[v] = 1.0;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Connectivity;
    use crate::{MultilevelKWay, Partitioner, SiteGraph};
    use hemelb_geometry::VesselBuilder;

    fn setup() -> (SiteGraph, Vec<usize>) {
        let geo = VesselBuilder::aneurysm(28.0, 4.0, 6.0).voxelise(1.0);
        let g = SiteGraph::from_geometry(&geo, Connectivity::Six);
        let owner = MultilevelKWay.partition(&g, 4);
        (g, owner)
    }

    #[test]
    fn skewed_vis_load_gets_balanced() {
        let (g, owner) = setup();
        // Camera looking along +x: only the front third is visible.
        let w2 = synthetic_view_weights(&g, [1.0, 0.0, 0.0], 0.34);
        let g = g.with_secondary_weights(w2);
        let out = rebalance(&g, &owner, 4, 0.10, 30).unwrap();
        assert!(
            out.imbalance2_before > 1.5,
            "compute-only partition should be vis-skewed, got {}",
            out.imbalance2_before
        );
        assert!(
            out.imbalance2_after < out.imbalance2_before,
            "{} -> {}",
            out.imbalance2_before,
            out.imbalance2_after
        );
        assert!(out.moved_vertices > 0);
        // Migration is bounded: far less than the whole domain moves.
        assert!(out.migration_volume < g.total_weight() * 0.6);
    }

    #[test]
    fn already_balanced_input_moves_nothing_much() {
        let (g, owner) = setup();
        // Uniform vis weight: the compute-balanced partition is already
        // vis-balanced.
        let g = g.with_secondary_weights(vec![1.0; owner.len()]);
        let out = rebalance(&g, &owner, 4, 0.10, 30).unwrap();
        assert!(out.imbalance2_before <= 1.06);
        assert!(
            out.cut_after <= out.cut_before,
            "pure refinement must not worsen the cut"
        );
    }

    #[test]
    fn primary_balance_is_not_sacrificed() {
        let (g, owner) = setup();
        let w2 = synthetic_view_weights(&g, [0.0, 0.0, 1.0], 0.25);
        let g = g.with_secondary_weights(w2);
        let out = rebalance(&g, &owner, 4, 0.10, 30).unwrap();
        assert!(
            out.imbalance_after <= 1.15,
            "compute imbalance after: {}",
            out.imbalance_after
        );
    }

    #[test]
    fn rebalance_rejects_malformed_owner_maps() {
        let (g, owner) = setup();
        let g2 = g.clone().with_secondary_weights(vec![1.0; g.len()]);
        let short = &owner[..owner.len() - 1];
        assert!(matches!(
            rebalance(&g2, short, 4, 0.1, 5),
            Err(crate::PartitionError::OwnerLengthMismatch { .. })
        ));
        let mut bad = owner.clone();
        bad[0] = 99;
        assert!(matches!(
            rebalance(&g2, &bad, 4, 0.1, 5),
            Err(crate::PartitionError::OwnerOutOfRange { vertex: 0, .. })
        ));
        assert!(matches!(
            rebalance(&g2, &owner, 0, 0.1, 5),
            Err(crate::PartitionError::ZeroParts)
        ));
    }

    #[test]
    fn single_constraint_fallback_fixes_compute_skew() {
        let (g, _) = setup();
        // Deliberately skewed: rank 0 owns ~70% of the sites.
        let n = g.len();
        let heavy = n * 7 / 10;
        let owner: Vec<usize> = (0..n)
            .map(|v| {
                if v < heavy {
                    0
                } else {
                    1 + (v - heavy) * 3 / (n - heavy)
                }
            })
            .collect();
        let out = rebalance(&g, &owner, 4, 0.10, 40).unwrap();
        assert!(
            out.imbalance_after < out.imbalance_before,
            "fallback should reduce compute imbalance: {} -> {}",
            out.imbalance_before,
            out.imbalance_after
        );
        assert!(out.moved_vertices > 0);
        // No secondary weights: the vis imbalance reports the neutral 1.0.
        assert_eq!(out.imbalance2_before, 1.0);
        assert_eq!(out.imbalance2_after, 1.0);
    }

    #[test]
    fn synthetic_weights_survive_nan_coordinates() {
        let (g, _) = setup();
        let mut g = g;
        g.coords[0] = [f64::NAN, f64::NAN, f64::NAN];
        let w = synthetic_view_weights(&g, [1.0, 0.0, 0.0], 0.5);
        assert_eq!(w.len(), g.len());
        assert!(w.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn striped_partition_balances_both_weights() {
        let (g, _) = setup();
        let w2 = synthetic_view_weights(&g, [1.0, 0.0, 0.0], 0.3);
        let g = g.with_secondary_weights(w2);
        let owner = striped_multiconstraint(&g, 4, 32);
        let q = crate::metrics::quality(&g, &owner, 4);
        assert!(q.imbalance < 1.1, "compute imbalance {}", q.imbalance);
        let im2 = q.imbalance2.unwrap();
        assert!(im2 < 1.5, "vis imbalance {im2} should be near-balanced");
        // The price: a worse cut than a locality-preserving partition.
        let kway = crate::MultilevelKWay.partition(&g, 4);
        let q_kway = crate::metrics::quality(&g, &kway, 4);
        assert!(
            q.edge_cut > q_kway.edge_cut,
            "striping trades cut for multi-weight balance"
        );
    }

    #[test]
    fn striped_partition_block_granularity_controls_balance() {
        let (g, _) = setup();
        let w2 = synthetic_view_weights(&g, [0.0, 0.0, 1.0], 0.25);
        let g = g.with_secondary_weights(w2);
        let fine = crate::metrics::quality(&g, &striped_multiconstraint(&g, 4, 16), 4);
        let coarse = crate::metrics::quality(&g, &striped_multiconstraint(&g, 4, 512), 4);
        assert!(
            fine.imbalance2.unwrap() <= coarse.imbalance2.unwrap() + 0.05,
            "finer stripes balance no worse: {} vs {}",
            fine.imbalance2.unwrap(),
            coarse.imbalance2.unwrap()
        );
    }

    #[test]
    fn synthetic_weights_select_requested_fraction() {
        let (g, _) = setup();
        let w = synthetic_view_weights(&g, [1.0, 0.0, 0.0], 0.5);
        let visible = w.iter().filter(|&&x| x > 0.0).count();
        let frac = visible as f64 / g.len() as f64;
        assert!((frac - 0.5).abs() < 0.01, "{frac}");
    }
}
