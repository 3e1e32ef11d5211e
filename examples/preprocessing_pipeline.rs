//! The pre-processing chain of the paper's §IV-B: write the two-level
//! geometry file, load it collectively with a subset of reading cores,
//! then compare domain decompositions (naive slabs vs space-filling
//! curves vs multilevel k-way) on the metrics that decide solver
//! scalability.
//!
//! ```sh
//! cargo run --release --example preprocessing_pipeline
//! ```

use hemelb::geometry::distio::read_distributed;
use hemelb::geometry::format::{read_header, write_sgmy};
use hemelb::geometry::VesselBuilder;
use hemelb::parallel::{run_spmd_with_stats, TagClass};
use hemelb::partition::graph::{Connectivity, SiteGraph};
use hemelb::partition::{
    quality, HilbertSfc, MortonSfc, MultilevelKWay, NaiveBlock, Partitioner, Rcb,
};
use std::sync::Arc;

fn main() {
    // 1. Build and serialise the geometry (normally done once, offline).
    let geo = Arc::new(VesselBuilder::aneurysm(28.0, 4.0, 6.0).voxelise(0.5));
    let mut buf = Vec::new();
    write_sgmy(&geo, 8, &mut buf).expect("serialise geometry");
    let path = std::env::temp_dir().join(format!("example_{}.sgmy", std::process::id()));
    std::fs::write(&path, &buf).expect("write geometry file");
    let header = read_header(&mut std::io::Cursor::new(&buf)).expect("header");
    println!(
        "wrote {}: {} sites, {} blocks ({} non-empty), {} bytes",
        path.display(),
        header.fluid_total,
        header.fluid_per_block.len(),
        header.fluid_per_block.iter().filter(|&&c| c > 0).count(),
        buf.len()
    );

    // 2. Distributed load with a subset of reading cores (§IV-B).
    println!("\nreading-core sweep (16 ranks):");
    println!(
        "{:>8} {:>22} {:>18}",
        "readers", "max file B per rank", "forwarded"
    );
    for readers in [1usize, 2, 4, 8, 16] {
        let path2 = path.clone();
        let out = run_spmd_with_stats(16, move |comm| {
            read_distributed(&path2, comm, readers)
                .unwrap()
                .file_bytes_read
        });
        println!(
            "{:>8} {:>22} {:>18}",
            readers,
            out.results.iter().max().unwrap(),
            out.summary.total.bytes(TagClass::Geometry)
        );
    }
    std::fs::remove_file(&path).ok();

    // 3. Partitioner comparison — the ParMETIS question.
    let graph = SiteGraph::from_geometry(&geo, Connectivity::D3Q15);
    let partitioners: Vec<Box<dyn Partitioner>> = vec![
        Box::new(NaiveBlock),
        Box::new(MortonSfc),
        Box::new(HilbertSfc),
        Box::new(Rcb),
        Box::new(MultilevelKWay),
    ];
    println!("\npartition quality at 16 parts ({} sites):", graph.len());
    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>12}",
        "method", "imbalance", "edge cut", "comm volume", "max neighb."
    );
    for p in &partitioners {
        let t0 = std::time::Instant::now();
        let owner = p.partition(&graph, 16);
        let elapsed = t0.elapsed();
        let q = quality(&graph, &owner, 16);
        println!(
            "{:<10} {:>10.3} {:>10} {:>12} {:>12}   ({:.1} ms)",
            p.name(),
            q.imbalance,
            q.edge_cut,
            q.comm_volume,
            q.max_neighbours,
            elapsed.as_secs_f64() * 1e3,
        );
    }
    println!("\n(the multilevel k-way partitioner is this repository's ParMETIS stand-in)");
}
