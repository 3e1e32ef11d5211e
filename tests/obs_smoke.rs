//! Observability smoke test: after a short closed-loop run, every
//! layer's phase timings are present and nonzero, the per-rank reports
//! aggregate, and the JSON export round-trips exactly.

use hemelb::core::SolverConfig;
use hemelb::geometry::VesselBuilder;
use hemelb::obs::Json;
use hemelb::parallel::{run_spmd_opts, SpmdOptions, TagClass};
use hemelb::steering::{
    duplex_pair, run_closed_loop, ClosedLoopConfig, SteeringClient, SteeringCommand, Transport,
};
use std::sync::Arc;
use std::sync::Mutex;

#[test]
fn obs_reports_survive_json_and_show_real_phase_timings() {
    let geo = Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0));
    let (client_end, server_end) = duplex_pair();
    let server_slot = Arc::new(Mutex::new(Some(Box::new(server_end) as Box<dyn Transport>)));

    let client_thread = std::thread::spawn(move || {
        let client = SteeringClient::new(Box::new(client_end));
        for _ in 0..3 {
            client.request_frame().unwrap();
        }
        client.send(&SteeringCommand::Terminate).unwrap();
        while client.recv().is_ok() {}
        client.obs_report()
    });

    let geo2 = geo.clone();
    let output = run_spmd_opts(2, SpmdOptions::default(), move |comm| {
        let transport = if comm.is_master() {
            server_slot.lock().unwrap().take()
        } else {
            None
        };
        let owner: Vec<usize> = (0..geo2.fluid_count())
            .map(|s| (s * comm.size() / geo2.fluid_count()).min(comm.size() - 1))
            .collect();
        run_closed_loop(
            geo2.clone(),
            owner,
            SolverConfig::pressure_driven(1.01, 0.99),
            comm,
            transport,
            &ClosedLoopConfig {
                max_steps: u64::MAX / 2,
                image: (32, 24),
                initial_vis_rate: u32::MAX,
                steps_per_cycle: 10,
                ..Default::default()
            },
        )
        .unwrap()
    });
    let client_report = client_thread.join().unwrap();

    // Every rank produced a rank-stamped report with real LB phase time.
    assert_eq!(output.obs.len(), 2);
    for (r, report) in output.obs.iter().enumerate() {
        assert_eq!(report.rank, Some(r));
        for phase in ["lb.collide", "lb.halo-wait", "sim.step"] {
            let p = report
                .phases
                .get(phase)
                .unwrap_or_else(|| panic!("rank {r} missing {phase}"));
            assert!(p.calls > 0, "rank {r}: {phase} has zero calls");
        }
        assert!(report.phases["lb.collide"].total_secs > 0.0);
    }

    // The aggregate sums the per-rank call counts.
    let merged = output.merged_obs();
    assert_eq!(
        merged.phases["lb.collide"].calls,
        output
            .obs
            .iter()
            .map(|o| o.phases["lb.collide"].calls)
            .sum::<u64>()
    );

    // Per-tag-class wait time was accounted alongside byte counts.
    assert!(output.summary.total.recv_wait_secs(TagClass::Collective) >= 0.0);
    assert!(
        output.summary.total.bytes(TagClass::Halo) > 0,
        "halo traffic flowed"
    );

    // The client measured all three requested rounds end to end.
    let rtt = &client_report.phases["steer.rtt"];
    assert_eq!(rtt.calls, 3);
    assert!(rtt.total_secs > 0.0);
    assert!(rtt.hist.p95() >= rtt.hist.p50());

    // JSON export parses back with every phase and counter, bit-exactly.
    for report in output.obs.iter().chain([&merged, &client_report]) {
        let tree = Json::parse(&report.to_json()).expect("export must parse");
        let phases = tree.get("phases").and_then(Json::as_obj).unwrap();
        assert_eq!(phases.len(), report.phases.len());
        for (name, p) in phases {
            let want = &report.phases[name];
            assert_eq!(p.get("calls").and_then(Json::as_u64), Some(want.calls));
            let secs = p.get("total_secs").and_then(Json::as_f64).unwrap();
            assert_eq!(secs.to_bits(), want.total_secs.to_bits(), "{name}");
            assert_eq!(p.get("hist"), Some(&want.hist.to_json()), "{name}");
        }
        let counters = tree.get("counters").and_then(Json::as_obj).unwrap();
        assert_eq!(counters.len(), report.counters.len());
        for (name, n) in counters {
            assert_eq!(n.as_u64(), Some(report.counters[name]), "{name}");
        }
        let timeline = tree.get("timeline").and_then(Json::as_arr).unwrap();
        assert_eq!(timeline.len(), report.timeline.len());
    }

    // And the human-readable table mentions the phases and quantiles.
    let table = merged.render_table();
    assert!(table.contains("lb.collide"));
    assert!(table.contains("p95"));
}
