//! Property-based tests (proptest) on the core invariants: wire
//! encoding, partition covers, octree tilings, compositing algebra,
//! collectives versus sequential references, and solver conservation.

use hemelb::core::equilibrium::{feq_all, moments};
use hemelb::core::model::LatticeModel;
use hemelb::geometry::VesselBuilder;
use hemelb::insitu::image::{over_px, PartialImage};
use hemelb::octree::FieldOctree;
use hemelb::parallel::{run_spmd, Wire, WireReader, WireWriter};
use hemelb::partition::graph::{Connectivity, SiteGraph};
use hemelb::partition::{quality, HilbertSfc, MultilevelKWay, NaiveBlock, Partitioner};
use proptest::prelude::*;

mod common;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wire_scalars_round_trip(a: u64, b: f64, c: bool, s in "\\PC{0,40}") {
        let mut w = WireWriter::new();
        w.put_u64(a);
        w.put_f64(b);
        w.put_bool(c);
        w.put_str(&s);
        let mut r = WireReader::new(w.finish());
        prop_assert_eq!(r.get_u64().unwrap(), a);
        let b2 = r.get_f64().unwrap();
        prop_assert!(b2 == b || (b.is_nan() && b2.is_nan()));
        prop_assert_eq!(r.get_bool().unwrap(), c);
        prop_assert_eq!(r.get_str().unwrap(), s);
        r.expect_end().unwrap();
    }

    #[test]
    fn wire_vectors_round_trip(v in proptest::collection::vec(any::<f64>(), 0..200)) {
        let mut w = WireWriter::new();
        w.put_f64_slice(&v);
        let mut r = WireReader::new(w.finish());
        let back = r.get_f64_vec().unwrap();
        prop_assert_eq!(back.len(), v.len());
        for (x, y) in back.iter().zip(&v) {
            prop_assert!(x == y || (x.is_nan() && y.is_nan()));
        }
    }

    #[test]
    fn truncated_payloads_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Decoding arbitrary bytes as various types must error, not panic.
        let _ = u64::from_bytes(bytes.clone());
        let _ = String::from_bytes(bytes.clone());
        let _ = Vec::<f64>::from_bytes(bytes.clone());
        let _ = Vec::<(u32, String)>::from_bytes(bytes);
    }

    #[test]
    fn equilibrium_moments_match_inputs(
        rho in 0.5f64..2.0,
        ux in -0.1f64..0.1,
        uy in -0.1f64..0.1,
        uz in -0.1f64..0.1,
    ) {
        for model in [LatticeModel::d3q15(), LatticeModel::d3q19()] {
            let mut f = vec![0.0; model.q];
            feq_all(&model, rho, [ux, uy, uz], &mut f);
            let (r, u) = moments(&model, &f);
            prop_assert!((r - rho).abs() < 1e-12);
            prop_assert!((u[0] - ux).abs() < 1e-12);
            prop_assert!((u[1] - uy).abs() < 1e-12);
            prop_assert!((u[2] - uz).abs() < 1e-12);
        }
    }

    #[test]
    fn over_operator_is_associative(
        a in proptest::array::uniform4(0.0f32..1.0),
        b in proptest::array::uniform4(0.0f32..1.0),
        c in proptest::array::uniform4(0.0f32..1.0),
    ) {
        // Premultiplied: colour channels must not exceed alpha.
        let clamp = |mut p: [f32; 4]| {
            for i in 0..3 {
                p[i] = p[i].min(p[3]);
            }
            p
        };
        let (a, b, c) = (clamp(a), clamp(b), clamp(c));
        let left = over_px(over_px(a, b), c);
        let right = over_px(a, over_px(b, c));
        for i in 0..4 {
            prop_assert!((left[i] - right[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn partial_merge_is_commutative(
        pa in proptest::collection::vec((proptest::array::uniform4(0.0f32..1.0), 0.0f32..10.0), 8),
        pb in proptest::collection::vec((proptest::array::uniform4(0.0f32..1.0), 0.0f32..10.0), 8),
    ) {
        let build = |data: &[([f32; 4], f32)]| {
            let mut p = PartialImage::new(4, 2);
            for (i, (px, d)) in data.iter().enumerate() {
                p.image.pixels[i] = *px;
                // Distinct depths avoid the tie case where ordering is
                // rank-determined.
                p.depth[i] = d + i as f32 * 1e-3;
            }
            p
        };
        let a = build(&pa);
        let b = build(&pb);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for i in 0..8 {
            if (a.depth[i] - b.depth[i]).abs() > 1e-6 {
                for k in 0..4 {
                    prop_assert!((ab.image.pixels[i][k] - ba.image.pixels[i][k]).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn partitioners_cover_arbitrary_tubes(
        len in 8.0f64..24.0,
        radius in 2.0f64..5.0,
        k in 2usize..6,
    ) {
        let geo = VesselBuilder::straight_tube(len, radius).voxelise(1.0);
        let graph = SiteGraph::from_geometry(&geo, Connectivity::Six);
        let partitioners: Vec<Box<dyn Partitioner>> = vec![
            Box::new(NaiveBlock),
            Box::new(HilbertSfc),
            Box::new(MultilevelKWay),
        ];
        for p in &partitioners {
            let owner = p.partition(&graph, k);
            prop_assert_eq!(owner.len(), graph.len());
            prop_assert!(owner.iter().all(|&o| o < k), "{} out of range", p.name());
            let q = quality(&graph, &owner, k);
            prop_assert!(q.imbalance < 2.0, "{} imbalance {}", p.name(), q.imbalance);
        }
    }

    #[test]
    fn octree_cuts_tile_random_fields(
        seed in 0u64..1000,
        level in 0u8..5,
    ) {
        let geo = VesselBuilder::straight_tube(12.0, 3.0).voxelise(1.0);
        let n = geo.fluid_count();
        // Deterministic pseudo-random field from the seed.
        let field: Vec<f64> = (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed);
                (x >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        let tree = FieldOctree::build(&geo, &field);
        let level = level.min(tree.depth());
        let cut = tree.cut_at_level(level);
        let covered: u64 = cut.iter().map(|node| node.agg.count as u64).sum();
        prop_assert_eq!(covered, n as u64);
        // Aggregate mean at the root equals the field mean.
        let root = &tree.nodes()[tree.root() as usize];
        let mean: f64 = field.iter().sum::<f64>() / n as f64;
        prop_assert!((root.agg.mean - mean).abs() < 1e-9);
        // Reconstruction error bounded by the field range.
        let err = tree.l2_error_at_level(&geo, &field, level);
        prop_assert!((0.0..=2.0).contains(&err));
    }

    #[test]
    fn allreduce_matches_sequential_fold(
        values in proptest::collection::vec(-1e6f64..1e6, 2..6),
    ) {
        let expect: f64 = values.iter().sum();
        let vals = values.clone();
        let results = run_spmd(values.len(), move |comm| {
            comm.all_reduce_f64(vals[comm.rank()], |a, b| a + b).unwrap()
        });
        for r in results {
            prop_assert!((r - expect).abs() < 1e-6 * expect.abs().max(1.0));
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn steering_commands_round_trip(kind in 0u8..11, a in any::<f64>(), b in any::<u32>()) {
        use hemelb::steering::SteeringCommand;
        let cmd = steering_command(kind, a, b);
        let bytes = cmd.to_bytes();
        prop_assert_eq!(SteeringCommand::from_bytes(bytes).unwrap(), cmd);
    }
}

/// One of the 11 steering command kinds, filled from drawn raw values.
fn steering_command(kind: u8, a: f64, b: u32) -> hemelb::steering::SteeringCommand {
    use hemelb::steering::{FieldChoice, SteeringCommand};
    let a = if a.is_finite() { a } else { 1.0 };
    match kind {
        0 => SteeringCommand::SetCamera {
            eye: [a, 1.0, 2.0],
            target: [0.0, a, 0.0],
            up: [0.0, 0.0, 1.0],
            fov_y: 0.7,
        },
        1 => SteeringCommand::SetField(match b % 3 {
            0 => FieldChoice::Density,
            1 => FieldChoice::Speed,
            _ => FieldChoice::Shear,
        }),
        2 => SteeringCommand::SetVisRate(b),
        3 => SteeringCommand::SetRoi {
            lo: [b % 100, 0, 1],
            hi: [b % 100 + 5, 10, 11],
        },
        4 => SteeringCommand::SetInletPressure { id: b % 4, rho: a },
        5 => SteeringCommand::Pause,
        6 => SteeringCommand::Resume,
        7 => SteeringCommand::RequestFrame,
        8 => SteeringCommand::RequestObservables,
        9 => SteeringCommand::Terminate,
        10 => SteeringCommand::SetAdaptiveLb(b & 1 == 0),
        _ => unreachable!("11 command kinds"),
    }
}

/// A valid server message of each kind a client decodes off the
/// socket. Images are 4 × 3.
fn server_message(
    kind: u8,
    a: f64,
    b: u32,
    pixels: &[u8],
) -> hemelb::steering::protocol::ServerMessage {
    use hemelb::steering::protocol::ServerMessage;
    use hemelb::steering::{ImageFrame, ObservableReport, StatusReport};
    match kind {
        0 => ServerMessage::Status(StatusReport {
            step: b as u64,
            mass: a,
            max_speed: 0.1,
            residual: 1e-6,
            problems: (0..b % 3).map(|i| format!("problem {i}: {a}")).collect(),
            eta_steps: 10,
            paused: b & 1 == 0,
            rebalances: 1,
            lb_imbalance: 1.0,
            sessions: 2,
            cache_hits: 3,
            cache_misses: 4,
        }),
        1 => ServerMessage::Image(ImageFrame {
            step: b as u64,
            width: 4,
            height: 3,
            rgb: pixels.to_vec(),
        }),
        2 => ServerMessage::Observables(ObservableReport {
            step: b as u64,
            sites: 12,
            mean_density: a,
            mean_speed: 0.01,
            max_speed: 0.02,
            max_wss: 0.003,
            roi: (b & 1 == 0).then_some(([0, 1, 2], [b % 50 + 3, 4, 5])),
        }),
        _ => unreachable!("3 server message kinds"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn steering_decoders_survive_truncation_and_bit_flips(
        cmd_kind in 0u8..11,
        msg_kind in 0u8..3,
        a in any::<f64>(),
        b in any::<u32>(),
        pixels in proptest::collection::vec(any::<u8>(), 36..37),
    ) {
        // Both ends read these bytes off a socket: every truncation and
        // every single-bit flip of a valid encoding must come back as
        // `Ok` or `Err`, never a panic or an absurd allocation.
        use hemelb::steering::protocol::ServerMessage;
        use hemelb::steering::SteeringCommand;
        let mutations = |valid: Vec<u8>| {
            let truncations = (0..valid.len()).map({
                let valid = valid.clone();
                move |len| valid[..len].to_vec()
            });
            let flips = (0..valid.len() * 8).map(move |bit| {
                let mut flipped = valid.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                flipped
            });
            truncations.chain(flips)
        };
        for hostile in mutations(steering_command(cmd_kind, a, b).to_bytes()) {
            let _ = SteeringCommand::from_bytes(hostile);
        }
        for hostile in mutations(server_message(msg_kind, a, b, &pixels).to_bytes()) {
            let _ = ServerMessage::from_bytes(hostile);
        }
    }
}

#[test]
fn solver_checkpoints_reject_every_truncation_and_bit_flip() {
    // A checkpoint is read back off disk after a crash: every strict
    // prefix and every single-bit flip of a valid file must come back as
    // `Err` from `restore` (FNV-1a catches any one changed byte), never a
    // panic, and must leave the solver as it was.
    use hemelb::core::{Solver, SolverConfig};
    use std::sync::Arc;
    let geo = Arc::new(VesselBuilder::straight_tube(4.0, 1.0).voxelise(1.0));
    let cfg = SolverConfig::pressure_driven(1.01, 0.99);
    let mut s = Solver::new(geo.clone(), cfg.clone());
    s.step_n(3);
    let dir = std::env::temp_dir().join(format!("hlb_prop_hostile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("st.chkp");
    s.checkpoint(&path).unwrap();
    let valid = std::fs::read(&path).unwrap();
    let mut victim = Solver::new(geo, cfg);
    let untouched = victim.raw_distributions();
    let truncations = (0..valid.len()).map(|len| valid[..len].to_vec());
    let flips = (0..valid.len() * 8).map(|bit| {
        let mut flipped = valid.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        flipped
    });
    let mut cases = 0;
    for hostile in truncations.chain(flips) {
        std::fs::write(&path, &hostile).unwrap();
        assert!(
            victim.restore(&path).is_err(),
            "{} bytes accepted",
            hostile.len()
        );
        cases += 1;
    }
    assert_eq!(cases, valid.len() * 9);
    assert_eq!(victim.step_count(), 0);
    assert!(common::bits_eq(&victim.raw_distributions(), &untouched));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pixel_runs_survive_every_truncation_and_bit_flip() {
    // A peer's compositing payload arrives every frame. Every strict
    // prefix and every single-bit flip of a valid multi-run payload must
    // come back from `merge_pixel_runs` as `Ok` or `Err`, never a panic.
    // An `Err` writes nothing; an `Ok` writes only inside the range it
    // returns.
    use hemelb::insitu::compositing::{encode_pixel_runs, merge_pixel_runs};
    let lit = |p: &mut PartialImage, i: usize, d: f32| {
        p.image.pixels[i] = [0.25, 0.5, 0.125, 0.5];
        p.depth[i] = d;
    };
    let mut sender = PartialImage::new(16, 8);
    for i in (20..26).chain(40..43).chain(90..100) {
        lit(&mut sender, i, i as f32);
    }
    let valid = encode_pixel_runs(&sender, 16..112).to_vec();
    let mut base = PartialImage::new(16, 8);
    for i in (0..128).step_by(7) {
        lit(&mut base, i, 50.0);
    }
    let bits = |p: &PartialImage, i: usize| {
        let px = p.image.pixels[i].map(f32::to_bits);
        (px, p.depth[i].to_bits())
    };
    let truncations = (0..valid.len()).map(|len| valid[..len].to_vec());
    let flips = (0..valid.len() * 8).map(|bit| {
        let mut flipped = valid.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        flipped
    });
    let (mut oks, mut errs) = (0, 0);
    for hostile in truncations.chain(flips) {
        let mut into = base.clone();
        let kept = match merge_pixel_runs(&mut into, hostile) {
            Ok(range) => {
                oks += 1;
                range
            }
            Err(_) => {
                errs += 1;
                0..0
            }
        };
        for i in (0..128).filter(|i| !kept.contains(i)) {
            assert_eq!(bits(&into, i), bits(&base, i), "pixel {i} outside {kept:?}");
        }
    }
    assert_eq!(oks + errs, valid.len() * 9);
    // Flips in the float payload still decode; every truncation fails.
    assert!(oks > 0 && errs >= valid.len());
}

#[test]
fn obs_reports_reject_every_truncation() {
    use hemelb::obs::{Json, Recorder};
    let mut rec = Recorder::new();
    rec.record_secs("lb.collide", 1.5e-3);
    rec.record_secs("lb.collide", 2.5e-3);
    rec.time("vis.render", || ());
    rec.count("halo.msgs", 12);
    rec.count("fault.injected.drop", 1);
    let json = rec.report().to_json();
    assert!(Json::parse(&json).is_ok());
    for (len, _) in json.char_indices() {
        assert!(
            Json::parse(&json[..len]).is_err(),
            "prefix of {len} bytes accepted"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn calibrated_model_round_trips_bench_json_losslessly(
        alpha in any::<f64>(),
        beta in any::<f64>(),
        gamma in any::<f64>(),
        r2 in any::<f64>(),
        residuals in proptest::collection::vec(any::<f64>(), 0..8),
    ) {
        // BENCH_projection.json carries the calibrated model as bit-split
        // counters (hi/lo 32-bit halves of each f64): the round trip must
        // be exact to the bit for *every* f64, including NaN, ±inf and
        // subnormals, or a re-gated baseline would drift.
        use hemelb::obs::{Json, Recorder};
        use hemelb::parallel::{CalibratedModel, CostModel};
        let cal = CalibratedModel {
            model: CostModel { alpha, beta, gamma },
            residuals: residuals.clone(),
            r2,
            samples: residuals.len(),
        };
        let mut rec = Recorder::new();
        cal.record_to(&mut rec, "projection.model");
        let report = rec.report();
        // The bit-split counters survive the JSON text exactly ...
        let tree = Json::parse(&report.to_json()).unwrap();
        let counters = tree.get("counters").and_then(Json::as_obj).unwrap();
        prop_assert_eq!(counters.len(), report.counters.len());
        for (name, n) in counters {
            prop_assert_eq!(n.as_u64(), Some(report.counters[name]));
        }
        // ... and every `*_hi`/`*_lo` pair of the parsed tree
        // reassembles its f64 bit for bit.
        let count = |name: &str| {
            let key = format!("projection.model.{name}");
            tree.get("counters").and_then(|c| c.get(&key)).and_then(Json::as_u64)
        };
        let bits = |name: &str| {
            (count(&format!("{name}_hi")).unwrap() << 32) | count(&format!("{name}_lo")).unwrap()
        };
        prop_assert_eq!(bits("alpha"), alpha.to_bits());
        prop_assert_eq!(bits("beta"), beta.to_bits());
        prop_assert_eq!(bits("gamma"), gamma.to_bits());
        prop_assert_eq!(bits("r2"), r2.to_bits());
        prop_assert_eq!(count("samples"), Some(residuals.len() as u64));
        prop_assert_eq!(count("residuals"), Some(residuals.len() as u64));
        for (i, r) in residuals.iter().enumerate() {
            prop_assert_eq!(bits(&format!("resid{i:04}")), r.to_bits());
        }
    }

    #[test]
    fn calibration_fit_is_deterministic(
        raw in proptest::collection::vec(
            (0u64..1000, 0u64..1_000_000, 0u64..1_000_000, 0.0f64..10.0),
            3..24,
        ),
    ) {
        // The fit runs collectively (every rank fits the same all-reduced
        // samples and must land on the identical model), so identical
        // inputs must produce bit-identical outputs — or identical errors.
        use hemelb::parallel::{calibrate_fit, CalSample};
        let samples: Vec<CalSample> = raw
            .iter()
            .map(|&(msgs, bytes, work, secs)| CalSample { msgs, bytes, work, secs })
            .collect();
        match (calibrate_fit(&samples), calibrate_fit(&samples)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.model.alpha.to_bits(), b.model.alpha.to_bits());
                prop_assert_eq!(a.model.beta.to_bits(), b.model.beta.to_bits());
                prop_assert_eq!(a.model.gamma.to_bits(), b.model.gamma.to_bits());
                prop_assert_eq!(a.r2.to_bits(), b.r2.to_bits());
                prop_assert_eq!(a.residuals.len(), b.residuals.len());
                for (x, y) in a.residuals.iter().zip(&b.residuals) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "nondeterministic outcome: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn histogram_quantile_is_monotone_in_q(
        values in proptest::collection::vec(1e-9f64..1e3, 1..128),
        qs in proptest::collection::vec(0.0f64..=1.0, 2..12),
    ) {
        use hemelb::obs::Histogram;
        let mut h = Histogram::new();
        for v in &values {
            h.record(*v);
        }
        let mut sorted = qs;
        sorted.sort_by(f64::total_cmp);
        let mut prev = f64::NEG_INFINITY;
        for q in sorted {
            let v = h.quantile(q);
            prop_assert!(
                v >= prev,
                "quantile({q}) = {v} dropped below an earlier quantile {prev}"
            );
            prev = v;
        }
    }
}

#[test]
fn parallel_kernel_is_bit_exact_across_all_operator_combinations() {
    // Exhaustive sweep guaranteeing the coverage the random cases of
    // `tests/overlap.rs` only sample: both velocity sets × three
    // collision operators × both BC families, on a cylinder and on a
    // porous block, 20 steps each, serial == 2 ranks. Each rank's
    // frontier or interior range is asserted ragged (a non-multiple of
    // the kernels' 8-site chunk), so every operator crosses the
    // padded-tail path on every rank, every step.
    use hemelb::core::collision::CollisionKind;
    use hemelb::core::solver::ModelKind;
    use hemelb::core::{DistSolver, Solver};
    let geos = [
        common::GeoSpec::Cylinder {
            len: 10.0,
            radius: 2.5,
        },
        common::GeoSpec::Porous {
            nx: 7,
            ny: 5,
            nz: 5,
            seed: 42,
        },
    ];
    for geo_spec in &geos {
        let geo = geo_spec.build();
        let n = geo.fluid_count();
        let owner: Vec<usize> = (0..n).map(|s| s * 2 / n).collect();
        for model in [ModelKind::D3Q15, ModelKind::D3Q19] {
            for collision in [
                CollisionKind::Bgk,
                CollisionKind::trt_magic(),
                CollisionKind::Mrt { omega_ghost: 1.2 },
            ] {
                for velocity_inlet in [false, true] {
                    let case = common::CaseSpec {
                        geo: geo_spec.clone(),
                        model,
                        collision,
                        velocity_inlet,
                    };
                    let cfg = case.config();
                    let mut serial = Solver::new(geo.clone(), cfg.clone());
                    serial.step_n(20);
                    let want = common::snapshot_digests(&serial.snapshot());
                    let (geo, owner) = (geo.clone(), owner.clone());
                    let gathered = run_spmd(2, move |comm| {
                        let mut ds =
                            DistSolver::new(geo.clone(), owner.clone(), cfg.clone(), comm).unwrap();
                        let part = ds.partition();
                        let ragged =
                            part.frontier_count() % 8 != 0 || part.interior_count() % 8 != 0;
                        ds.step_n(20).unwrap();
                        (ragged, ds.gather_snapshot().unwrap())
                    });
                    assert!(gathered.iter().all(|(ragged, _)| *ragged), "rank ranges");
                    let snap = gathered[0].1.as_ref().expect("root gathers");
                    assert_eq!(
                        common::snapshot_digests(snap),
                        want,
                        "2 ranks diverged for {case:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn checkpoint_round_trip_under_random_corruption() {
    use hemelb::core::{Solver, SolverConfig};
    use std::sync::Arc;
    let geo = Arc::new(VesselBuilder::straight_tube(12.0, 3.0).voxelise(1.0));
    let cfg = SolverConfig::pressure_driven(1.01, 0.99);
    let mut s = Solver::new(geo.clone(), cfg.clone());
    s.step_n(7);
    let dir = std::env::temp_dir().join(format!("hlb_prop_chkp_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("st.chkp");
    s.checkpoint(&path).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    // Clean restore works.
    let mut fresh = Solver::new(geo.clone(), cfg.clone());
    fresh.restore(&path).unwrap();
    assert_eq!(fresh.snapshot().rho, s.snapshot().rho);

    // Any single flipped byte in the body is detected.
    for k in [16usize, 24, pristine.len() / 2, pristine.len() - 1] {
        let mut corrupt = pristine.clone();
        corrupt[k] ^= 0x40;
        std::fs::write(&path, &corrupt).unwrap();
        let mut victim = Solver::new(geo.clone(), cfg.clone());
        assert!(
            victim.restore(&path).is_err(),
            "corruption at byte {k} must be caught"
        );
    }

    // A crafted header whose `site_count × q` overflows, under a valid
    // checksum (FNV-1a is not cryptographic), is rejected, not a panic.
    let mut body = Vec::new();
    for word in [7u64, 1 << 63, 2] {
        body.extend(word.to_le_bytes());
    }
    let sum = body.iter().fold(0xcbf29ce484222325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    });
    let mut crafted = pristine[..8].to_vec();
    crafted.extend(sum.to_le_bytes());
    crafted.extend(body);
    std::fs::write(&path, &crafted).unwrap();
    let mut victim = Solver::new(geo, cfg);
    let err = victim.restore(&path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solver_interior_mass_conservation_property() {
    // Not a proptest (solver runs are costly) but a sweep: for several
    // tau values, a closed equilibrium state conserves mass exactly.
    use hemelb::core::{Solver, SolverConfig};
    use std::sync::Arc;
    let geo = Arc::new(VesselBuilder::straight_tube(14.0, 3.0).voxelise(1.0));
    for tau in [0.6, 0.8, 1.0, 1.4] {
        let mut s = Solver::new(
            geo.clone(),
            SolverConfig::pressure_driven(1.0, 1.0).with_tau(tau),
        );
        let m0 = s.mass();
        s.step_n(20);
        assert!((s.mass() - m0).abs() < 1e-8, "tau={tau}");
    }
}
