//! `reproduce` — regenerate every table and figure of the paper.
//!
//! ```text
//! reproduce [table1|fig1|fig2|fig3|fig4a|fig4b|scaling|preprocessing|multires|repartition|obs|render|faults|adaptive|kernel|overlap|gateway|farm|projection|ablation|all]
//!           [--size tiny|small|medium] [--ranks N]
//! ```
//!
//! Results print as paper-style tables; figure experiments also write
//! PPM images under `./out/`. `EXPERIMENTS.md` records a reference run.

use hemelb_bench::workloads::Size;
use hemelb_bench::{
    ablation, adaptive, extract, farm, faults, fig1, fig2, fig3, fig4, gateway, kernel, multires,
    obs, overlap, preprocess, projection, render, repartition, scaling, table1,
};

struct Args {
    what: String,
    size: Size,
    ranks: usize,
}

fn parse_args() -> Args {
    let mut what = "all".to_string();
    let mut size = Size::Small;
    let mut ranks = 8usize;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--size" => {
                i += 1;
                size = match argv.get(i).map(String::as_str) {
                    Some("tiny") => Size::Tiny,
                    Some("small") => Size::Small,
                    Some("medium") => Size::Medium,
                    other => {
                        eprintln!("unknown size {other:?} (tiny|small|medium)");
                        std::process::exit(2);
                    }
                };
            }
            "--ranks" => {
                i += 1;
                ranks = argv.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--ranks needs a number");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!(
                    "usage: reproduce [table1|fig1|fig2|fig3|fig4a|fig4b|scaling|preprocessing|multires|repartition|obs|render|faults|adaptive|kernel|overlap|gateway|farm|projection|ablation|all] [--size tiny|small|medium] [--ranks N]"
                );
                std::process::exit(0);
            }
            w => what = w.to_string(),
        }
        i += 1;
    }
    Args { what, size, ranks }
}

fn main() {
    let args = parse_args();
    let run_all = args.what == "all";
    let mut ran = false;

    if run_all || args.what == "table1" {
        ran = true;
        println!("=== E1: Table I ===");
        let params = table1::Table1Params {
            size: args.size,
            ranks: args.ranks,
            ..Default::default()
        };
        println!("{}", table1::run(params));
    }
    if run_all || args.what == "fig1" {
        ran = true;
        println!("=== E2: Fig. 1 (sparse storage) ===");
        let sizes: &[Size] = match args.size {
            Size::Tiny => &[Size::Tiny],
            Size::Small => &[Size::Tiny, Size::Small],
            Size::Medium => &[Size::Tiny, Size::Small, Size::Medium],
        };
        println!("{}", fig1::run(sizes));
    }
    if run_all || args.what == "fig2" {
        ran = true;
        println!("=== E3: Fig. 2 (closed-loop steering) ===");
        let configs = [
            (2usize, (64u32, 48u32)),
            (args.ranks.max(2), (128, 96)),
            (args.ranks.max(2), (256, 192)),
        ];
        println!("{}", fig2::run(args.size, &configs, 5));
    }
    if run_all || args.what == "fig3" {
        ran = true;
        println!("=== E4: Fig. 3 (post-processing pipeline) ===");
        println!("{}", fig3::run(args.size, 3, (128, 96)));
    }
    if run_all || args.what == "fig4a" {
        ran = true;
        println!("=== E5: Fig. 4a (volume rendering) ===");
        println!("{}", fig4::run_4a(args.size, args.ranks, 512, 384));
    }
    if run_all || args.what == "fig4b" {
        ran = true;
        println!("=== E6: Fig. 4b (streamlines) ===");
        println!("{}", fig4::run_4b(args.size, args.ranks, 64, 512, 384));
    }
    if run_all || args.what == "lic" {
        ran = true;
        println!("=== E1-aux: LIC slice figure ===");
        println!("{}", fig4::run_lic(args.size, args.ranks.min(4)));
    }
    if run_all || args.what == "scaling" {
        ran = true;
        println!("=== E7: strong scaling + 32k projection ===");
        println!("{}", scaling::run(args.size, &[1, 2, 4, 8, 16], 10));
    }
    if run_all || args.what == "preprocessing" {
        ran = true;
        println!("=== E8: two-level read, reading-core sweep ===");
        println!("{}", preprocess::run(args.size, 16, &[1, 2, 4, 8, 16]));
    }
    if run_all || args.what == "multires" {
        ran = true;
        println!("=== E9: multi-resolution octree ===");
        println!("{}", multires::run(args.size));
    }
    if run_all || args.what == "repartition" {
        ran = true;
        println!("=== E10: vis-aware repartitioning ===");
        println!("{}", repartition::run(args.size, args.ranks));
    }
    if run_all || args.what == "extract" {
        ran = true;
        println!("=== E11: in situ feature extraction (isosurface + vortices) ===");
        println!("{}", extract::run(args.size));
    }
    if run_all || args.what == "obs" {
        ran = true;
        println!("=== E12: observability (phase timings, wait by class, steering RTT) ===");
        println!("{}", obs::run(args.size, args.ranks, 5));
    }
    if run_all || args.what == "render" {
        ran = true;
        println!("=== E13: in situ rendering (macrocell skipping + sparse compositing) ===");
        let (w, h) = match args.size {
            Size::Tiny => (160u32, 120u32),
            Size::Small => (320, 240),
            Size::Medium => (512, 384),
        };
        println!("{}", render::run(args.size, args.ranks.clamp(2, 8), w, h));
    }
    if run_all || args.what == "faults" {
        ran = true;
        println!("=== E14: fault injection (degraded frames + recovery replay) ===");
        println!("{}", faults::run(args.size, args.ranks.clamp(3, 8), 5));
    }
    if run_all || args.what == "adaptive" {
        ran = true;
        println!("=== E15: adaptive load balancing (measure -> plan -> gate -> migrate) ===");
        println!("{}", adaptive::run(args.size, args.ranks.clamp(2, 8)));
    }
    if run_all || args.what == "kernel" {
        ran = true;
        println!("=== E16: kernel throughput (site-updates/s, golden digest re-checked) ===");
        let steps = match args.size {
            Size::Tiny => 50,
            Size::Small => 40,
            Size::Medium => 10,
        };
        println!("{}", kernel::run(args.size, steps));
    }
    if run_all || args.what == "overlap" {
        ran = true;
        println!("=== E18: communication/computation overlap (sync vs frontier-first) ===");
        let steps = match args.size {
            Size::Tiny => 4,
            Size::Small => 8,
            Size::Medium => 6,
        };
        println!("{}", overlap::run(args.size, steps, args.ranks.clamp(2, 8)));
    }
    if run_all || args.what == "gateway" {
        ran = true;
        println!("=== E17: steering gateway load test (fan-out + frame cache) ===");
        let (observers, frames) = match args.size {
            Size::Tiny => (120, 5),
            Size::Small => (200, 8),
            Size::Medium => (400, 10),
        };
        println!(
            "{}",
            gateway::run(args.size, args.ranks.clamp(2, 8), observers, frames)
        );
    }
    if run_all || args.what == "farm" {
        ran = true;
        println!("=== E19: simulation farm (sweep saturation vs sequential baseline) ===");
        println!("{}", farm::run(args.size, args.ranks.clamp(2, 8)));
    }
    if run_all || args.what == "projection" {
        ran = true;
        println!("=== E20: calibrated cost model + 1k-32k rank projection ===");
        let steps = match args.size {
            Size::Tiny => 4,
            Size::Small => 8,
            Size::Medium => 4,
        };
        println!(
            "{}",
            projection::run(args.size, steps, args.ranks.clamp(2, 16))
        );
    }
    if run_all || args.what == "ablation" {
        ran = true;
        println!("=== A1: resolution convergence (mesh refinement pay-off) ===");
        let spacings: &[f64] = match args.size {
            Size::Tiny => &[1.0, 0.5],
            _ => &[1.0, 0.5, 0.25],
        };
        println!("{}", ablation::run(spacings));
    }

    if !ran {
        eprintln!("unknown experiment '{}'; try --help", args.what);
        std::process::exit(2);
    }
}
