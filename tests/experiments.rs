//! The experiment suite at test scale: every table/figure experiment of
//! `DESIGN.md` §3 runs end-to-end and its *shape* assertions hold (who
//! wins, what grows, what shrinks — the reproduction criteria).

use hemelb_bench::workloads::Size;
use hemelb_bench::{fig1, fig3, fig4, multires, preprocess, repartition, scaling, table1};

#[test]
fn e1_table1_orderings() {
    let result = table1::run(table1::Table1Params {
        size: Size::Tiny,
        ranks: 4,
        flow_steps: 150,
        seeds: 16,
        particle_steps: 150,
    });
    let problems = result.check_orderings();
    assert!(problems.is_empty(), "{problems:?}");
}

#[test]
fn e2_fig1_sparse_storage_wins() {
    let result = fig1::run(&[Size::Tiny]);
    let row = &result.rows[0];
    assert!(row.sparse_bytes < row.dense_bytes / 2);
    assert!(row.fluid_fraction < 0.5);
}

#[test]
fn e4_fig3_pipeline_reduces_data() {
    let result = fig3::run(Size::Tiny, 3, (48, 36));
    let (full, reduced) = result.filtered_bytes();
    assert!(reduced < full / 2, "{reduced} vs {full}");
    // All four canonical stages ran in both variants.
    for stages in [&result.full, &result.reduced] {
        let names: Vec<_> = stages.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, ["extract", "filter", "map", "render"]);
    }
}

#[test]
fn e5_e6_fig4_images_render() {
    let a = fig4::run_4a(Size::Tiny, 2, 96, 72);
    assert!(a.coverage > 0.03 && a.coverage < 0.9, "{}", a.coverage);
    assert_eq!(a.data_bytes, 0);
    std::fs::remove_file(&a.path).ok();

    let b = fig4::run_4b(Size::Tiny, 2, 9, 96, 72);
    assert!(b.lines >= 4);
    assert!(b.coverage > 0.003);
    std::fs::remove_file(&b.path).ok();
}

#[test]
fn e7_scaling_shape() {
    let result = scaling::run(Size::Tiny, &[1, 4]);
    // Halo traffic appears only with >1 rank.
    for name in ["naive", "hilbert", "kway"] {
        let rows = result.rows_for(name);
        assert_eq!(rows[0].halo_bytes_per_step, 0);
        assert!(rows[1].halo_bytes_per_step > 0);
        assert!(rows[1].imbalance < 1.5, "{name}: {}", rows[1].imbalance);
    }
}

#[test]
fn e8_reading_core_tradeoff() {
    let result = preprocess::run(Size::Tiny, 8, &[1, 8]);
    let one = &result.rows[0];
    let all = &result.rows[1];
    assert!(one.max_file_bytes_per_reader >= 8 * all.max_file_bytes_per_reader / 10 * 8 / 8);
    assert!(one.max_file_bytes_per_reader > all.max_file_bytes_per_reader);
    assert!(all.forward_bytes < one.forward_bytes);
}

#[test]
fn e9_multires_shape() {
    let result = multires::run(Size::Tiny);
    assert!(result.rows.len() >= 4, "enough levels to be interesting");
    assert!(result.rows.last().unwrap().l2_error < 1e-12);
    assert!(result.rows[1].prefix_bytes < result.full_bytes);
    assert!(result.roi_nodes < result.fine_nodes);
}

#[test]
fn e10_repartition_shape() {
    let result = repartition::run(Size::Tiny, 4);
    for v in &result.views {
        let base = &v.rows[0];
        let striped = &v.rows[2];
        assert!(striped.imbalance2 < base.imbalance2, "{}", v.view);
        assert!(striped.imbalance < 1.1);
    }
}
